package sim

import (
	"fmt"
	"runtime"
	"time"

	"webcache/internal/cache"
	"webcache/internal/netmodel"
	"webcache/internal/obs"
	"webcache/internal/trace"
)

// engine is one scheme's per-request logic.  serve processes a request
// by a member of a proxy's cluster and returns the serving tier plus
// the end-to-end latency charged to the client.  st is the request's
// span trace (nil when the request is unsampled or tracing is off);
// engines append one span per hop, with durations that sum exactly to
// the latency they return — the decomposition cross-check
// (CheckDecomposition) holds them to it.
type engine interface {
	serve(obj trace.ObjectID, size uint32, proxy, member int, st *obs.SpanTrace) (netmodel.Source, float64)
	// finish folds engine-specific telemetry into the result.
	finish(res *Result)
}

// maintainer is implemented by engines with background maintenance
// (Hier-GD's failure injection).
type maintainer interface {
	maintain(reqIdx int, res *Result)
}

// Run replays the trace under the configured scheme.  With cfg.Obs
// set, the run's telemetry is folded into the registry (sim.* metrics)
// and the replay is timed under "sim.run"; the hot loop itself carries
// no instrumentation, so a nil registry costs nothing.
func Run(tr *trace.Trace, cfg Config) (*Result, error) {
	defer cfg.Obs.Timer("sim.run").Start()()
	cfg.fillDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	sz := computeSizing(tr, cfg)
	// With pinned capacities (calibration replays) an empty infinite
	// cache is harmless — the fractional sizing it would break is
	// bypassed.
	if len(cfg.ProxyCapacityOverride) == 0 || len(cfg.ClientCapacityOverride) == 0 {
		for p, n := range sz.infinite {
			if n == 0 {
				return nil, fmt.Errorf("sim: cluster %d has an empty infinite cache (trace too small for %d proxies x %d clients)",
					p, cfg.NumProxies, cfg.ClientsPerCluster)
			}
		}
	}

	var eng engine
	var err error
	switch cfg.Scheme {
	case NC, SC, NCEC, SCEC:
		eng = newLFUEngine(cfg, sz)
	case FC, FCEC:
		eng, err = newFCEngine(tr, cfg, sz)
	case HierGD:
		if cfg.FleetSize > 1 {
			eng, err = newFleetEngine(cfg, sz)
		} else {
			eng, err = newHierGDEngine(cfg, sz)
		}
	case Squirrel:
		eng, err = newSquirrelEngine(cfg, sz)
	default:
		err = fmt.Errorf("sim: unhandled scheme %v", cfg.Scheme)
	}
	if err != nil {
		return nil, err
	}

	res := &Result{
		Scheme:             cfg.Scheme,
		InfiniteCacheSizes: sz.infinite,
		ProxyCapacities:    sz.proxyCap,
		ClientCapacity:     sz.clientCap[0],
	}
	mnt, hasMaintenance := eng.(maintainer)
	// latHist records the per-request latency distribution (1 model
	// latency unit observed as 1ms), so chaos runs can read a simulated
	// p999 the same way live runs read the loadgen histogram.  Nil
	// registry = nil histogram = no-ops.
	latHist := cfg.Obs.Histogram("sim.latency")
	// simClock is the tracer's virtual time base: requests are replayed
	// sequentially, so cumulative charged latency lays sampled traces
	// end-to-end on the Perfetto timeline.
	simClock := 0.0
	// With a registry attached, account the replay loop's allocation
	// rate (sim.alloc.*) from the runtime's malloc counters.  The
	// numbers are process-wide, so they are only exact for a single
	// replay at a time — which is how the alloc gate runs them.  The
	// reads happen outside the loop; an uninstrumented run skips them.
	var memBefore runtime.MemStats
	if cfg.Obs.Enabled() {
		runtime.ReadMemStats(&memBefore)
	}
	for i, r := range tr.Requests {
		if hasMaintenance {
			mnt.maintain(i, res)
		}
		at := sz.clients[r.Client]
		st := cfg.Tracer.StartTrace("request", simClock)
		src, lat := eng.serve(r.Object, r.Size, at.proxy, at.member, st)
		st.Finish(src.String(), lat)
		simClock += lat
		if i < cfg.WarmupRequests {
			continue // warm the caches without measuring
		}
		latHist.Observe(time.Duration(lat * float64(time.Millisecond)))
		res.Requests++
		res.Sources[src]++
		res.Bytes[src] += uint64(r.Size)
		res.TotalLatency += lat
	}
	if cfg.Obs.Enabled() {
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)
		cfg.Obs.Counter("sim.alloc.mallocs").Add(int64(memAfter.Mallocs - memBefore.Mallocs))
		cfg.Obs.Counter("sim.alloc.bytes").Add(int64(memAfter.TotalAlloc - memBefore.TotalAlloc))
	}
	if res.Requests > 0 {
		res.AvgLatency = res.TotalLatency / float64(res.Requests)
	}
	eng.finish(res)
	if cfg.Check != nil {
		// Cumulative across runs sharing one Checker, like the obs
		// registry; per-run deltas are the caller's job.
		res.InvariantChecks = cfg.Check.Checks()
		res.InvariantViolations = cfg.Check.ViolationCount()
	}
	res.PublishMetrics(cfg.Obs)
	return res, nil
}

// lfuEngine implements NC, SC, NC-EC, and SC-EC: per-proxy LFU caches
// (unified with the P2P client-cache tier for the EC variants) with
// optional inter-proxy miss sharing, no replacement coordination.
type lfuEngine struct {
	cfg     Config
	caches  []*tieredCache
	digests []*digest // nil with perfect inter-proxy knowledge
	stale   int
}

func newLFUEngine(cfg Config, sz sizing) *lfuEngine {
	e := &lfuEngine{cfg: cfg, caches: make([]*tieredCache, cfg.NumProxies)}
	ec := cfg.Scheme.UsesClientCaches()
	for p := range e.caches {
		p2pCap := uint64(0)
		if ec {
			p2pCap = sz.p2pCap[p]
		}
		// Non-EC schemes have no client tier: pool with zero extra.
		single := !ec || cfg.SinglePoolEC
		e.caches[p] = newTieredCache(sz.proxyCap[p], p2pCap, cfg.BasePolicy, single,
			cfg.Check, fmt.Sprintf("proxy%d", p))
	}
	if cfg.DigestInterval > 0 && cfg.Scheme.Cooperative() {
		for p := range e.caches {
			c := e.caches[p]
			e.digests = append(e.digests, newDigest(
				int(sz.proxyCap[p]+sz.p2pCap[p]), cfg.DigestFPRate, c.objects))
		}
	}
	return e
}

// maintain rebuilds the inter-proxy digests on their exchange period.
func (e *lfuEngine) maintain(reqIdx int, res *Result) {
	if e.digests == nil || reqIdx == 0 || reqIdx%e.cfg.DigestInterval != 0 {
		return
	}
	res.MaintenanceTicks++
	for _, d := range e.digests {
		d.rebuild()
	}
}

func (e *lfuEngine) serve(obj trace.ObjectID, size uint32, proxy, _ int, st *obs.SpanTrace) (netmodel.Source, float64) {
	net := e.cfg.Net
	c := e.caches[proxy]
	switch c.access(obj) {
	case tierProxy:
		st.Span("proxy.cache", string(netmodel.CompTl), net.Tl)
		return netmodel.SrcLocalProxy, net.Latency(netmodel.SrcLocalProxy)
	case tierClient:
		st.Span("proxy.cache", string(netmodel.CompTl), net.Tl)
		st.Span("p2p.fetch", string(netmodel.CompTp2p), net.Tp2p)
		return netmodel.SrcP2P, net.Latency(netmodel.SrcP2P)
	}
	c.recordMiss(obj)
	st.Span("proxy.cache", string(netmodel.CompTl), net.Tl)
	src := netmodel.SrcServer
	extra := 0.0
	if e.cfg.Scheme.Cooperative() {
		for q := 1; q < len(e.caches); q++ {
			pi := (proxy + q) % len(e.caches)
			peer := e.caches[pi]
			if e.digests != nil && !e.digests[pi].mayContain(obj) {
				continue // digest says the peer cannot serve it
			}
			if peer.contains(obj) {
				peer.touchRemote(obj)
				st.Span("peer.fetch", string(netmodel.CompTc), net.Tc)
				src = netmodel.SrcRemoteProxy
				break
			}
			if e.digests != nil {
				// Stale digest entry: the probe was wasted.
				e.stale++
				st.WastedSpan("peer.probe.stale", string(netmodel.CompTc), net.Tc)
				extra += net.Tc
			}
		}
	}
	if src == netmodel.SrcServer {
		st.Span("origin.fetch", string(netmodel.CompTs), net.Ts)
	}
	// "Once a proxy fetches an object from another proxy, it caches
	// the object locally" (§2) — and likewise for server fetches.
	c.insert(entryFor(obj, size, net.FetchCost(src)))
	return src, net.Latency(src) + extra
}

func (e *lfuEngine) finish(res *Result) {
	res.DigestStaleProbes += e.stale
	for _, c := range e.caches {
		res.ProxyEvictions += c.upperEvictions
	}
	for _, d := range e.digests {
		res.DigestMemoryBytes += d.memoryBytes()
		res.DigestRebuilds += d.rebuilds
	}
}

// entryFor builds a cache entry for a fetched object.
func entryFor(obj trace.ObjectID, size uint32, cost float64) cache.Entry {
	return cache.Entry{Obj: obj, Size: size, Cost: cost}
}
