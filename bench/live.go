package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"webcache/internal/httpcache"
	"webcache/internal/loadgen"
	"webcache/internal/obs"
	"webcache/internal/prowgen"
	"webcache/internal/sim"
	"webcache/internal/trace"
)

// Live load shape, the same for every live workload: closed loop,
// liveWorkers callers that each wait for their reply, no think time.
const (
	liveProxies        = 2
	liveCachesPerProxy = 3
	liveWorkers        = 2
)

// liveSizes freezes one live workload's inputs.  Capacities are in
// objects; the topology gets them multiplied by ObjectBytes.
type liveSizes struct {
	Objects         int `json:"objects"`
	Clients         int `json:"clients"`
	ObjectBytes     int `json:"object_bytes"`
	ProxyCapObjects int `json:"proxy_cap_objects"`
	CacheCapObjects int `json:"cache_cap_objects"`
	// TouchAll warms up by fetching every object once through every
	// proxy (the all-hits workload); otherwise the first Warmup
	// requests of the generated trace warm the caches.
	TouchAll bool `json:"touch_all"`
	Warmup   int  `json:"warmup"`
	// Pool is the number of generated requests after the warm-up; a run
	// measures consecutive Block-sized slices of it, wrapping at the end.
	Pool  int `json:"pool"`
	Block int `json:"block"`
	// BlocksPerSecond is the reference box's rate; with --seconds it
	// fixes how many blocks a run measures.
	BlocksPerSecond float64 `json:"blocks_per_second"`
	// ProWGen shape.
	Alpha        float64 `json:"alpha"`
	OneTimerFrac float64 `json:"one_timer_frac"`
	StackFrac    float64 `json:"stack_frac"`
}

func (sz liveSizes) scaled(scale float64) liveSizes {
	sz.Objects = scaleInt(sz.Objects, scale, 200)
	sz.ProxyCapObjects = scaleInt(sz.ProxyCapObjects, scale, 8)
	sz.CacheCapObjects = scaleInt(sz.CacheCapObjects, scale, 8)
	sz.Warmup = scaleInt(sz.Warmup, scale, 100)
	sz.Block = scaleInt(sz.Block, scale, 100)
	sz.Pool = scaleInt(sz.Pool, scale, 4*sz.Block)
	sz.Pool -= sz.Pool % sz.Block
	return sz
}

func scaleInt(v int, scale float64, floor int) int {
	if v == 0 {
		return 0
	}
	if out := int(float64(v) * scale); out > floor {
		return out
	}
	return floor
}

// simConfig is the simulator configuration the topology is sized from
// and the calibration replay runs under: same proxies, same client to
// proxy mapping, capacities pinned to the live ones.
func (sz liveSizes) simConfig(seed int64) sim.Config {
	return sim.Config{
		Scheme:                 sim.HierGD,
		NumProxies:             liveProxies,
		ClientsPerCluster:      (sz.Clients + liveProxies - 1) / liveProxies,
		P2PClientCaches:        liveCachesPerProxy,
		Directory:              sim.DirExact,
		ProxyCapacityOverride:  []uint64{uint64(sz.ProxyCapObjects)},
		ClientCapacityOverride: []uint64{uint64(sz.CacheCapObjects)},
		Seed:                   seed,
	}
}

// liveTrace generates the workload's request stream: the warm-up
// prefix followed by the measured pool.
func liveTrace(sz liveSizes, seed int64) (*trace.Trace, int, error) {
	gen := sz.Pool
	if !sz.TouchAll {
		gen += sz.Warmup
	}
	tr, err := prowgen.Generate(prowgen.Config{
		NumRequests:  gen,
		NumObjects:   sz.Objects,
		NumClients:   sz.Clients,
		Alpha:        sz.Alpha,
		OneTimerFrac: sz.OneTimerFrac,
		StackFrac:    sz.StackFrac,
		Seed:         seed,
	})
	if err != nil {
		return nil, 0, err
	}
	// ProWGen's finite stream is not stationary: first references come
	// early and the last stretch draws on the few objects with references
	// left, so the origin's share falls from a half to a tenth across it
	// and a block's cost would depend on its position.  Issued in a
	// seeded random order the same references make every block alike, at
	// the price of ProWGen's temporal locality (the sim workloads keep it).
	rq := tr.Requests
	rand.New(rand.NewSource(seed)).Shuffle(len(rq), func(i, j int) {
		rq[i].Client, rq[j].Client = rq[j].Client, rq[i].Client
		rq[i].Object, rq[j].Object = rq[j].Object, rq[i].Object
		rq[i].Size, rq[j].Size = rq[j].Size, rq[i].Size
	})
	if !sz.TouchAll {
		return tr, sz.Warmup, nil
	}
	// Prefix: every object once per proxy, issued by that proxy's first
	// client, at time 0 so the trace stays time-ordered.
	perCluster := sz.simConfig(seed).ClientsPerCluster
	touch := make([]trace.Request, 0, liveProxies*tr.NumObjects+len(tr.Requests))
	for p := 0; p < liveProxies; p++ {
		for o := 0; o < tr.NumObjects; o++ {
			touch = append(touch, trace.Request{
				Client: trace.ClientID(p * perCluster), Object: trace.ObjectID(o), Size: 1,
			})
		}
	}
	warm := len(touch)
	tr.Requests = append(touch, tr.Requests...)
	return tr, warm, nil
}

// tierNames maps loadgen's four serving tiers to metric-name parts.
var tierNames = [4]string{"proxy", "client_cache", "remote_proxy", "origin"}

// checkTarget is the benchmark's loadgen.Target: it issues the GET,
// checks the reply (status, body length, a known serving tier) and
// keeps every latency in its own sample array, so percentiles are exact
// order statistics rather than histogram buckets.
type checkTarget struct {
	client    *http.Client
	wantBytes int64
	rec       *spanRecorder // nil unless this is a traced run
	tracing   *atomic.Bool  // true while a traced block runs
	blockID   int

	mu      sync.Mutex
	latUs   []float64
	tierOf  []uint8
	failed  int
	firstEr error
}

func (t *checkTarget) reset(blockID, capacity int) {
	t.blockID = blockID
	t.latUs = make([]float64, 0, capacity)
	t.tierOf = make([]uint8, 0, capacity)
	t.failed = 0
}

// Do implements loadgen.Target.
func (t *checkTarget) Do(r loadgen.ScheduledRequest) loadgen.Outcome {
	req, err := http.NewRequest("GET", r.URL, nil)
	if err != nil {
		return t.fail(0, err)
	}
	id := ""
	if t.rec != nil && t.tracing.Load() {
		id = "b" + strconv.Itoa(t.blockID) + "-" + strconv.Itoa(r.Index)
		req.Header.Set(httpcache.TraceHeader, id)
	}
	start := time.Now()
	resp, err := t.client.Do(req)
	if err != nil {
		return t.fail(time.Since(start), err)
	}
	n, cerr := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	end := time.Now()
	lat := end.Sub(start)
	if id != "" {
		t.rec.add("client", "", id, start, end)
	}
	tier := loadgen.ParseTier(resp.Header.Get(httpcache.ServedByHeader))
	switch {
	case cerr != nil:
		return t.fail(lat, cerr)
	case resp.StatusCode != http.StatusOK:
		return t.fail(lat, fmt.Errorf("status %d for %s", resp.StatusCode, r.URL))
	case n != t.wantBytes:
		return t.fail(lat, fmt.Errorf("body of %d bytes, want %d, for %s", n, t.wantBytes, r.URL))
	case tier > loadgen.TierOrigin:
		return t.fail(lat, fmt.Errorf("unknown %s %q for %s",
			httpcache.ServedByHeader, resp.Header.Get(httpcache.ServedByHeader), r.URL))
	}
	t.mu.Lock()
	t.latUs = append(t.latUs, float64(lat.Nanoseconds())/1e3)
	t.tierOf = append(t.tierOf, uint8(tier))
	t.mu.Unlock()
	return loadgen.Outcome{Tier: tier, Latency: lat, Status: resp.StatusCode}
}

func (t *checkTarget) fail(lat time.Duration, err error) loadgen.Outcome {
	t.mu.Lock()
	t.failed++
	if t.firstEr == nil {
		t.firstEr = err
	}
	t.mu.Unlock()
	return loadgen.Outcome{Tier: loadgen.TierError, Latency: lat, Err: err}
}

// liveEnv is one brought-up, warmed-up topology ready to be measured.
type liveEnv struct {
	sz      liveSizes
	tr      *trace.Trace
	warm    int // requests in the warm-up prefix
	topo    *loadgen.Topology
	sched   *loadgen.Schedule
	tgt     *checkTarget
	tracing atomic.Bool
}

// handlerRoutes names the span each daemon route produces and the span
// that causes it.  /store (pass-down) and the origin carry no trace id,
// so their time stays inside the /fetch span's self time.
var handlerRoutes = map[string][2]string{
	"proxy/fetch":       {"httpcache.proxy.fetch", "client"},
	"proxy/peer-lookup": {"httpcache.proxy.peer_lookup", "httpcache.proxy.fetch"},
	"proxy/accept-push": {"httpcache.proxy.accept_push", "httpcache.cache.push"},
	"cache/object":      {"httpcache.cache.object", "httpcache.proxy.fetch"},
	"cache/store":       {"httpcache.cache.store", "httpcache.proxy.fetch"},
	"cache/push":        {"httpcache.cache.push", "httpcache.proxy.peer_lookup"},
}

// spanHandler wraps a daemon handler so each call to a known route
// becomes a span carrying the request's propagated trace id.
func spanHandler(rec *spanRecorder, on *atomic.Bool, daemon string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route, known := handlerRoutes[daemon+r.URL.Path]
		if !known || !on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		rec.add(route[0], route[1], r.Header.Get(httpcache.TraceHeader), start, time.Now())
	})
}

// setupLive does one full set-up: generate the trace, bring the
// topology up, build the schedule and run the warm-up.  rec is nil for
// an untraced run; fault, when non-nil, wraps every proxy handler (the
// tests' way to inject a broken reply).
func setupLive(sz liveSizes, seed int64, rec *spanRecorder, fault func(http.Handler) http.Handler) (*liveEnv, error) {
	env := &liveEnv{sz: sz}
	var err error
	if env.tr, env.warm, err = liveTrace(sz, seed); err != nil {
		return nil, err
	}
	cfg := loadgen.TopologyConfig{
		Proxies:            liveProxies,
		CachesPerProxy:     liveCachesPerProxy,
		ProxyCapacityBytes: []uint64{uint64(sz.ProxyCapObjects * sz.ObjectBytes)},
		CacheCapacityBytes: []uint64{uint64(sz.CacheCapObjects * sz.ObjectBytes)},
		ObjectBytes:        sz.ObjectBytes,
	}
	if rec != nil {
		// Join-only: the daemons forward a trace id they were handed
		// but never start one, so ids reach the LAN and peer hops.
		cfg.Tracer = obs.NewTracer(obs.TracerOptions{
			Origin: "bench", SampleEvery: obs.SampleNever, Clock: obs.ClockWall, Limit: 1 << 30,
		})
		cfg.WrapProxy = func(_ int, h http.Handler) http.Handler {
			return spanHandler(rec, &env.tracing, "proxy", h)
		}
		cfg.WrapCache = func(_, _ int, h http.Handler) http.Handler {
			return spanHandler(rec, &env.tracing, "cache", h)
		}
	}
	if fault != nil {
		inner := cfg.WrapProxy
		cfg.WrapProxy = func(p int, h http.Handler) http.Handler {
			if inner != nil {
				h = inner(p, h)
			}
			return fault(h)
		}
	}
	if env.topo, err = loadgen.StartLoopback(cfg); err != nil {
		return nil, err
	}
	env.sched, err = loadgen.BuildSchedule(env.tr, env.topo.ProxyURLs, env.topo.OriginURL, sz.simConfig(seed).ProxyFor)
	if err != nil {
		env.close()
		return nil, err
	}
	env.tgt = &checkTarget{
		client:    &http.Client{Timeout: 10 * time.Second, Transport: httpcache.NewTransport()},
		wantBytes: int64(sz.ObjectBytes),
		rec:       rec,
		tracing:   &env.tracing,
	}
	env.tgt.reset(-1, env.warm)
	if err := env.drive(env.sched.Requests[:env.warm]); err != nil {
		env.close()
		return nil, err
	}
	if env.tgt.failed > 0 {
		err := fmt.Errorf("warm-up: %d of %d requests failed: %w", env.tgt.failed, env.warm, env.tgt.firstEr)
		env.close()
		return nil, err
	}
	return env, nil
}

// drive issues reqs closed loop through loadgen.Run.
func (e *liveEnv) drive(reqs []loadgen.ScheduledRequest) error {
	_, err := loadgen.Run(context.Background(),
		&loadgen.Schedule{Requests: reqs, NumProxies: liveProxies}, e.tgt,
		loadgen.Options{Mode: loadgen.ClosedLoop, Workers: liveWorkers})
	return err
}

// blocksInPool is how many distinct blocks the pool holds before the
// measured stream wraps.
func (e *liveEnv) blocksInPool() int { return e.sz.Pool / e.sz.Block }

// runBlock measures block i of the pool.  With traced set, requests
// carry trace ids and every layer boundary records a span.
func (e *liveEnv) runBlock(i int, traced bool) (block, []float64, []uint8, error) {
	lo := e.warm + (i%e.blocksInPool())*e.sz.Block
	reqs := e.sched.Requests[lo : lo+e.sz.Block]
	e.tgt.reset(i, len(reqs))
	e.tracing.Store(traced)
	defer e.tracing.Store(false)

	var b block
	m := startMeter()
	if err := e.drive(reqs); err != nil {
		return b, nil, nil, err
	}
	m.stop(&b)
	b.reqs = len(reqs)
	b.failed = e.tgt.failed
	lat, tiers := e.tgt.latUs, e.tgt.tierOf
	for _, t := range tiers {
		b.tierCount[t]++
	}
	b.samples = len(lat)
	if ok := len(lat); ok > 0 {
		b.hitRatio, b.hasHit = 1-float64(b.tierCount[loadgen.TierOrigin])/float64(ok), true
		sorted := append([]float64(nil), lat...)
		b.p50us = percentile(sorted, 50)
		b.p99us = percentile(sorted, 99)
	}
	return b, lat, tiers, nil
}

// proxyStats sums the proxies' /stats counters.
func (e *liveEnv) proxyStats() (httpcache.ProxyStats, error) {
	var total httpcache.ProxyStats
	for p := range e.topo.Proxies {
		st, err := e.topo.ProxyStats(p)
		if err != nil {
			return total, err
		}
		total.Requests += st.Requests
		total.ProxyHits += st.ProxyHits
		total.ClientHits += st.ClientHits
		total.RemoteHits += st.RemoteHits
		total.OriginFetch += st.OriginFetch
		total.CoalescedFetches += st.CoalescedFetches
		total.PassDowns += st.PassDowns
		total.Diversions += st.Diversions
		total.DirEntries += st.DirEntries
	}
	return total, nil
}

func (e *liveEnv) close() {
	e.tgt.closeIdle()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	e.topo.Close(ctx)
}

func (t *checkTarget) closeIdle() {
	if t != nil {
		t.client.CloseIdleConnections()
	}
}

// liveUntraced runs the end-to-end measurement of a live workload:
// three full set-ups (the median is setup_s; the last one is measured),
// then the blocks.
func liveUntraced(sz liveSizes, seed int64, seconds float64, fault func(http.Handler) http.Handler) (*runOutput, error) {
	out := newRunOutput()
	var env *liveEnv
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if env != nil {
			env.close()
		}
		runtime.GC() // each set-up starts from a collected heap, as each block does
		start := time.Now()
		var err error
		if env, err = setupLive(sz, seed, nil, fault); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer env.close()
	out.fingerprint = trace.Fingerprint(env.tr)
	out.e2e["setup_s"] = median(setups)

	clock := startClock(blocksFor(seconds, sz.BlocksPerSecond, minBlocks), seconds)
	for i := 0; clock.more(i); i++ {
		b, _, _, err := env.runBlock(i, false)
		if err != nil {
			return nil, err
		}
		out.addBlocks([]block{b})
		if b.failed > 0 && out.firstErr == nil {
			out.firstErr = env.tgt.firstEr
		}
	}
	for k, v := range reduceBlocks(out.blocks) {
		out.e2e[k] = v
	}
	out.record["tier_shares"] = tierShares(out.blocks)
	out.record["blocks_planned"] = clock.n
	return out, nil
}

// tierShares is each serving tier's share of the blocks' checked
// replies.
func tierShares(blocks []block) map[string]float64 {
	var counts [4]int
	total := 0
	for _, b := range blocks {
		for t, n := range b.tierCount {
			counts[t] += n
			total += n
		}
	}
	shares := make(map[string]float64, len(counts))
	for t, n := range counts {
		if total > 0 {
			shares[tierNames[t]] = float64(n) / float64(total)
		}
	}
	return shares
}
