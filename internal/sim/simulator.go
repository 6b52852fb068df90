package sim

import (
	"fmt"
	"time"

	"webcache/internal/cache"
	"webcache/internal/invariant"
	"webcache/internal/netmodel"
	"webcache/internal/obs"
	"webcache/internal/trace"
)

// engine is one scheme's per-request logic.  serve processes a request
// by a member of a proxy's cluster and returns the serving tier plus
// the end-to-end latency charged to the client.  Every scheme but
// Squirrel serves through peerTier.serve, the one cascade walk, and
// supplies only its tiers (proxyTiers).  st is the request's span
// trace (nil when the request is unsampled or tracing is off); engines
// append one span per hop, with durations that sum exactly to the
// latency they return — the decomposition cross-check
// (CheckDecomposition) holds them to it.
type engine interface {
	serve(obj trace.ObjectID, size uint32, proxy, member int, st *obs.SpanTrace) (netmodel.Source, float64)
	// maintain runs background work due before request reqIdx: digest
	// rebuilds, FC re-placement, failure injection.
	maintain(reqIdx int, res *Result)
	// finish folds engine-specific telemetry into the result.
	finish(res *Result)
}

// every reports whether a period of n requests (0 = never) ends at
// request index reqIdx.
func every(reqIdx, n int) bool { return n > 0 && reqIdx > 0 && reqIdx%n == 0 }

// newEngine builds the engine for cfg's scheme.
func newEngine(tr *trace.Trace, cfg Config, sz sizing) (engine, error) {
	switch cfg.Scheme {
	case NC, SC, NCEC, SCEC:
		return newLFUEngine(cfg, sz), nil
	case FC, FCEC:
		return newFCEngine(tr, cfg, sz)
	case HierGD:
		return newHierGDEngine(cfg, sz)
	case Squirrel:
		return newSquirrelEngine(cfg, sz)
	}
	return nil, fmt.Errorf("sim: unhandled scheme %v", cfg.Scheme)
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

	eng, err := newEngine(tr, cfg, sz)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Scheme:             cfg.Scheme,
		InfiniteCacheSizes: sz.infinite,
		ProxyCapacities:    sz.proxyCap,
		ClientCapacity:     sz.clientCap[0],
	}
	// latHist records the per-request latency distribution (1 model
	// latency unit observed as 1ms), so chaos runs can read a simulated
	// p999 the same way live runs read the loadgen histogram.  Nil
	// registry = nil histogram = no-ops.
	latHist := cfg.Obs.Histogram("sim.latency")
	// simClock is the tracer's virtual time base: requests are replayed
	// sequentially, so cumulative charged latency lays sampled traces
	// end-to-end on the Perfetto timeline.
	simClock := 0.0
	// cold counts cache serves that beat origin to their object; nil,
	// and free, without a Checker.
	cold := invariant.NewOriginOracle(cfg.Check, tr.NumObjects)
	for i, r := range tr.Requests {
		eng.maintain(i, res)
		at := sz.clients[r.Client]
		st := cfg.Tracer.StartTrace("request", simClock)
		src, lat := eng.serve(r.Object, r.Size, at.proxy, at.member, st)
		st.Finish(src.String(), lat)
		if cold != nil {
			cold.Serve(r.Object, src == netmodel.SrcServer)
		}
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
	if res.Requests > 0 {
		res.AvgLatency = res.TotalLatency / float64(res.Requests)
	}
	eng.finish(res)
	cold.Finish()
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
	peerTier
	caches []*tieredCache
}

func newLFUEngine(cfg Config, sz sizing) *lfuEngine {
	e := &lfuEngine{caches: make([]*tieredCache, cfg.NumProxies)}
	ec := cfg.Scheme.UsesClientCaches()
	for p := range e.caches {
		// Non-EC schemes have no client tier.
		p2pCap := uint64(0)
		if ec {
			p2pCap = sz.p2pCap[p]
		}
		e.caches[p] = newTieredCache(sz.proxyCap[p], p2pCap, sz.objects,
			cfg.Check, fmt.Sprintf("proxy%d", p))
	}
	e.peerTier = newPeerTier(cfg, sz, e, func(p int) []trace.ObjectID { return e.caches[p].objects() })
	return e
}

func (e *lfuEngine) own(obj trace.ObjectID, proxy, _ int, _ *obs.SpanTrace) (netmodel.Source, float64) {
	return e.caches[proxy].access(obj), 0
}

// peerServes serves obj to a cooperating proxy from proxy q's unified
// cache, when it holds a copy.
func (e *lfuEngine) peerServes(q int, obj trace.ObjectID, st *obs.SpanTrace) (bool, float64) {
	peer := e.caches[q]
	if !peer.contains(obj) {
		return false, 0
	}
	peer.touchRemote(obj)
	st.Span("peer.fetch", string(netmodel.CompTc), e.net.Tc)
	return true, 0
}

func (e *lfuEngine) fill(obj trace.ObjectID, size uint32, proxy, _ int, src netmodel.Source) {
	e.caches[proxy].insert(cache.Entry{Obj: obj, Size: size, Cost: e.net.FetchCost(src)})
}

func (e *lfuEngine) finish(res *Result) {
	e.peerTier.finish(res)
	for _, c := range e.caches {
		res.ProxyEvictions += c.upperEvictions
	}
}
