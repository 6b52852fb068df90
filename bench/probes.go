package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"webcache/internal/bloom"
	"webcache/internal/cache"
	"webcache/internal/directory"
	"webcache/internal/fleet"
	"webcache/internal/httpcache"
	"webcache/internal/loadgen"
	"webcache/internal/obs"
	"webcache/internal/p2p"
	"webcache/internal/pastry"
	"webcache/internal/store"
	"webcache/internal/store/disk"
	"webcache/internal/trace"
)

// Layer probes feed the workload's own object stream straight into each
// package's public API and time the calls in batches, from outside.
// They share nothing with the measured run except the stream.

const (
	// probeOps caps the calls one probe makes, so the whole set costs a
	// few seconds whatever the workload.
	probeOps     = 200_000
	probeBatches = 8
	probeClients = 100 // the paper's cluster size
)

// batchNs calls op(i) for every i in [0,n), in probeBatches batches, and
// returns the median batch's nanoseconds per call.
func batchNs(n int, op func(i int)) float64 {
	var ns []float64
	for b := 0; b < probeBatches; b++ {
		lo, hi := b*n/probeBatches, (b+1)*n/probeBatches
		if hi == lo {
			continue
		}
		start := time.Now()
		for i := lo; i < hi; i++ {
			op(i)
		}
		ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(hi-lo))
	}
	return median(ns)
}

// probeStream is the object stream the probes share: the head of the
// workload's requests, plus the distinct objects in first-seen order.
type probeStream struct {
	reqs     []trace.Request
	distinct []trace.ObjectID
	universe int // one more than the largest object id
}

func newProbeStream(tr *trace.Trace) probeStream {
	reqs := tr.Requests
	if len(reqs) > probeOps {
		reqs = reqs[:probeOps]
	}
	ps := probeStream{reqs: reqs, universe: tr.NumObjects}
	seen := make(map[trace.ObjectID]bool)
	for _, r := range reqs {
		if !seen[r.Object] {
			seen[r.Object] = true
			ps.distinct = append(ps.distinct, r.Object)
		}
	}
	return ps
}

func (ps probeStream) obj(i int) trace.ObjectID { return ps.reqs[i%len(ps.reqs)].Object }

// absent returns an object id no request references.
func (ps probeStream) absent(i int) trace.ObjectID { return trace.ObjectID(ps.universe + i) }

// layerProbes runs every probe and returns its metrics by name.
// objectBytes is the body size of the store, disk and handler probes;
// scratch is a directory the disk probe may create files under.
func layerProbes(ps probeStream, objectBytes int, seed int64, scratch string) (map[string]float64, error) {
	m := make(map[string]float64)
	n := len(ps.reqs)
	half := len(ps.distinct) / 2
	if half < 1 {
		half = 1
	}

	// cache: one lookup/fill cycle per request, at a tenth of the
	// stream's distinct objects so the policies evict steadily.
	capacity := uint64(len(ps.distinct)/10 + 1)
	for _, p := range []struct {
		name   string
		policy cache.Policy
	}{
		{"lru", cache.NewLRU(capacity)},
		{"lfu", cache.NewPerfectLFU(capacity)},
		{"gd", cache.NewGreedyDual(capacity)},
		{"gdsf", cache.NewGDSF(capacity)},
	} {
		evictions := 0
		m["cache."+p.name+".op_ns"] = batchNs(n, func(i int) {
			o := ps.obj(i)
			if !p.policy.Access(o) {
				evictions += len(p.policy.Add(cache.Entry{Obj: o, Size: 1, Cost: 1}))
			}
		})
		if p.name == "gd" {
			m["cache.gd.evictions"] = float64(evictions)
		}
	}

	// bloom: a counting filter sized for half the distinct objects at
	// 1 % false positives, filled to exactly that.
	cf := bloom.NewCountingForCapacity(half, 0.01)
	m["bloom.add_ns"] = batchNs(half, func(i int) { cf.Add(uint64(ps.distinct[i])) })
	hits := 0
	m["bloom.probe_ns"] = batchNs(n, func(i int) {
		if cf.MayContain(uint64(ps.obj(i))) {
			hits++
		}
	})
	falsePos := 0
	for i := 0; i < n; i++ {
		if cf.MayContain(uint64(ps.absent(i))) {
			falsePos++
		}
	}
	m["bloom.fp_ratio"] = float64(falsePos) / float64(n)
	m["bloom.remove_ns"] = batchNs(half, func(i int) { cf.Remove(uint64(ps.distinct[i])) })

	// directory: both representations holding the same half.
	exact, bl := directory.NewExact(), directory.NewBloom(half, 0.01)
	for _, o := range ps.distinct[:half] {
		exact.Add(o)
		bl.Add(o)
	}
	m["directory.exact.lookup_ns"] = batchNs(n, func(i int) {
		if exact.MayContain(ps.obj(i)) {
			hits++
		}
	})
	m["directory.bloom.lookup_ns"] = batchNs(n, func(i int) {
		if bl.MayContain(ps.obj(i)) {
			hits++
		}
	})
	m["directory.bloom.bytes"] = float64(bl.MemoryBytes())

	// pastry: a cluster-sized overlay.
	ov, err := pastry.New(pastry.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	var ids []pastry.ID
	start := time.Now()
	if ids, err = ov.JoinN(probeClients, "probe"); err != nil {
		return nil, err
	}
	m["pastry.join_us"] = float64(time.Since(start).Microseconds()) / probeClients
	var key pastry.ID
	m["pastry.hash_ns"] = batchNs(n, func(i int) { key = pastry.HashUint64(uint64(ps.obj(i))) })
	_ = key
	hops := 0
	var routeErr error
	m["pastry.route_ns"] = batchNs(n, func(i int) {
		_, h, err := ov.RouteFrom(ids[i%len(ids)], p2p.ObjectKey(ps.obj(i)))
		if err != nil {
			routeErr = err
		}
		hops += h
	})
	if routeErr != nil {
		return nil, routeErr
	}
	m["pastry.route_hops"] = float64(hops) / float64(n)

	// p2p: pass every distinct object down once, then look the stream up.
	perClient := uint64(half/probeClients + 1)
	cl, err := p2p.NewCluster(p2p.Config{NumClients: probeClients, PerClientCapacity: perClient, Seed: seed})
	if err != nil {
		return nil, err
	}
	var p2pErr error
	m["p2p.store_ns"] = batchNs(len(ps.distinct), func(i int) {
		if _, err := cl.StoreEvicted(cache.Entry{Obj: ps.distinct[i], Size: 1, Cost: 1}, i%probeClients, true); err != nil {
			p2pErr = err
		}
	})
	m["p2p.lookup_ns"] = batchNs(n, func(i int) {
		if _, err := cl.Lookup(ps.obj(i), i%probeClients); err != nil {
			p2pErr = err
		}
	})
	if p2pErr != nil {
		return nil, p2pErr
	}

	// store: room for a quarter of the distinct objects, filled, then
	// read, re-loaded and overwritten with fresh keys so every put evicts.
	body := make([]byte, objectBytes)
	slots := len(ps.distinct)/4 + 1
	st, err := store.New(store.Config{CapacityBytes: uint64(slots * objectBytes)})
	if err != nil {
		return nil, err
	}
	var resident []trace.ObjectID
	for i := 0; len(resident) < slots/2+1 && i < len(ps.distinct); i++ {
		if _, stored, _ := st.Put(ps.distinct[i], store.Object{Body: body, Cost: 1}); stored {
			resident = append(resident, ps.distinct[i])
		}
	}
	m["store.get_ns"] = batchNs(n, func(i int) { st.Get(resident[i%len(resident)]) })
	noLoad := func() (store.Object, string, error) { return store.Object{}, "", fmt.Errorf("probe key vanished") }
	var loadErr error
	m["store.getorload_hit_ns"] = batchNs(n, func(i int) {
		if _, err := st.GetOrLoad(resident[i%len(resident)], noLoad); err != nil {
			loadErr = err
		}
	})
	if loadErr != nil {
		return nil, loadErr
	}
	for i := 0; i < 2*slots; i++ { // fill to capacity before timing
		st.Put(ps.absent(i), store.Object{Body: body, Cost: 1})
	}
	evicted := 0
	puts := n / 4
	m["store.put_ns"] = batchNs(puts, func(i int) {
		ev, _, _ := st.Put(ps.absent(2*slots+i), store.Object{Body: body, Cost: 1})
		evicted += len(ev)
	})
	m["store.evictions_per_put"] = float64(evicted) / float64(puts)

	if err := diskProbe(m, body, scratch); err != nil {
		return nil, err
	}
	if err := handlerProbe(m, body, n); err != nil {
		return nil, err
	}

	// fleet: an eight-member ring.
	var members []string
	for i := 0; i < 8; i++ {
		members = append(members, fmt.Sprintf("http://member-%d", i))
	}
	ring := fleet.NewRingOf(fleet.DefaultVirtualNodes, members)
	m["fleet.owner_ns"] = batchNs(n, func(i int) { ring.OwnerOf(ps.obj(i)) })

	// obs: a live counter, and a one-span trace on an enabled tracer.
	ctr := obs.NewRegistry("probe").Counter("probe.ops")
	m["obs.counter_add_ns"] = batchNs(n, func(int) { ctr.Add(1) })
	tracer := obs.NewTracer(obs.TracerOptions{Origin: "probe", Limit: n + 1})
	m["obs.span_ns"] = batchNs(n, func(int) {
		t := tracer.StartTrace("request", 0)
		t.Span("proxy.cache", "Tl", 1)
		t.Finish("proxy", 1)
	})

	// loadgen: schedule building, and the driver against a target that
	// does nothing.
	sub := &trace.Trace{Requests: ps.reqs, NumClients: maxClient(ps.reqs) + 1, NumObjects: ps.universe}
	start = time.Now()
	sched, err := loadgen.BuildSchedule(sub, []string{"http://proxy-0", "http://proxy-1"}, "http://origin",
		func(c trace.ClientID) int { return int(c) % 2 })
	if err != nil {
		return nil, err
	}
	m["loadgen.schedule_build_s"] = time.Since(start).Seconds()
	start = time.Now()
	if _, err := loadgen.Run(context.Background(), sched, noopTarget{},
		loadgen.Options{Mode: loadgen.ClosedLoop, Workers: liveWorkers}); err != nil {
		return nil, err
	}
	m["loadgen.driver_ns_per_req"] = float64(time.Since(start).Nanoseconds()) / float64(n)
	return m, nil
}

func maxClient(reqs []trace.Request) int {
	max := 0
	for _, r := range reqs {
		if int(r.Client) > max {
			max = int(r.Client)
		}
	}
	return max
}

type noopTarget struct{}

func (noopTarget) Do(loadgen.ScheduledRequest) loadgen.Outcome {
	return loadgen.Outcome{Tier: loadgen.TierProxy, Status: http.StatusOK}
}

// diskProbe appends, syncs, reads and recovers a few thousand objects in
// a directory of its own under scratch, which it removes.
func diskProbe(m map[string]float64, body []byte, scratch string) error {
	const objects = 2000
	dir := filepath.Join(scratch, fmt.Sprintf("disk-probe-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := disk.Config{Dir: dir, CapacityBytes: uint64(4 * objects * len(body))}
	d, err := disk.Open(cfg)
	if err != nil {
		return err
	}
	obj := func(i int) disk.Object { return disk.Object{HexKey: fmt.Sprintf("%032x", i), Body: body, Cost: 1} }
	start := time.Now()
	for i := 0; i < objects; i++ {
		d.Put(trace.ObjectID(i), obj(i))
	}
	d.Sync()
	m["disk.append_ns"] = float64(time.Since(start).Nanoseconds()) / objects
	var syncs []float64
	for i := 0; i < 5; i++ {
		start = time.Now()
		d.Put(trace.ObjectID(objects+i), obj(objects+i))
		d.Sync()
		syncs = append(syncs, float64(time.Since(start).Microseconds())/1e3)
	}
	m["disk.sync_ms"] = median(syncs)
	missing := 0
	m["disk.read_ns"] = batchNs(objects, func(i int) {
		if _, ok := d.Get(trace.ObjectID(i)); !ok {
			missing++
		}
	})
	if err := d.Close(); err != nil {
		return err
	}
	if missing > 0 {
		return fmt.Errorf("disk probe: %d of %d synced objects unreadable", missing, objects)
	}
	start = time.Now()
	if d, err = disk.Open(cfg); err != nil {
		return err
	}
	elapsed := time.Since(start).Seconds()
	recovered := d.Recovered()
	if err := d.Close(); err != nil {
		return err
	}
	if recovered != objects+5 {
		return fmt.Errorf("disk probe: recovered %d objects, wrote %d", recovered, objects+5)
	}
	m["disk.replay_obj_per_s"] = float64(recovered) / elapsed
	return nil
}

// handlerProbe calls the proxy's handler directly on cached objects: no
// sockets, no client, just routing, store.Get and the response write.
func handlerProbe(m map[string]float64, body []byte, n int) error {
	const objects = 256
	px, err := httpcache.NewProxyOpts(httpcache.Options{CapacityBytes: uint64(4 * objects * len(body))})
	if err != nil {
		return err
	}
	defer px.Close()
	h := px.Handler()
	reqs := make([]*http.Request, objects)
	for i := range reqs {
		u := fmt.Sprintf("http://origin/obj/%d", i)
		id := pastry.HashString(u)
		if _, stored, err := px.Store().Put(fleet.Fold(id), store.Object{HexKey: id.String(), Body: body, Cost: 1}); err != nil || !stored {
			return fmt.Errorf("handler probe: priming %s: stored=%v err=%v", u, stored, err)
		}
		reqs[i] = httptest.NewRequest("GET", "/fetch?url="+url.QueryEscape(u), nil)
	}
	calls := n / 4
	bad := 0
	before := heapMallocs()
	m["httpcache.handler_hit_ns"] = batchNs(calls, func(i int) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, reqs[i%objects])
		if w.Code != http.StatusOK || w.Header().Get(httpcache.ServedByHeader) != httpcache.TierProxy || w.Body.Len() != len(body) {
			bad++
		}
	})
	m["httpcache.handler_hit_allocs"] = float64(heapMallocs()-before) / float64(calls)
	if bad > 0 {
		return fmt.Errorf("handler probe: %d of %d calls were not full-length proxy hits", bad, calls)
	}
	return nil
}
