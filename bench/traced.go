package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"webcache/internal/core"
	"webcache/internal/httpcache"
	"webcache/internal/loadgen"
	"webcache/internal/netmodel"
	"webcache/internal/prowgen"
	"webcache/internal/sim"
	"webcache/internal/trace"
)

// A traced run reports the per-layer metrics.  Every workload reports
// the whole catalogue, so the names line up across workloads:
//
//   - its own plane is measured with spans at every layer boundary, over
//     a quarter of the end-to-end run's blocks, each paired with an
//     untraced block; the pairs' rate ratio is bench.trace_overhead;
//   - the other plane is measured on the same inputs where it can be (a
//     live workload's trace is replayed through every simulator scheme)
//     or on a small fixed topology where it cannot (a sim workload
//     drives liveProbe for the handler spans);
//   - the layer probes run on the workload's own object stream.

// liveProbe is the small cascade a simulator workload's traced run
// drives to fill in the live-plane metrics.
var liveProbe = liveSizes{
	Objects:         2000,
	Clients:         200,
	ObjectBytes:     1024,
	ProxyCapObjects: 100,
	CacheCapObjects: 100,
	Warmup:          2000,
	Pool:            8000,
	Block:           1000,
	BlocksPerSecond: 4,
	Alpha:           0.8,
	OneTimerFrac:    0.5,
	StackFrac:       0.2,
}

// runLive measures a live workload.
func runLive(sz liveSizes, o options) (*runOutput, error) {
	if !o.traced {
		return liveUntraced(sz, o.seed, o.seconds, o.fault)
	}
	out := newRunOutput()
	rec := newSpanRecorder()
	env, err := liveLayer(out, rec, sz, o.seed, blocksFor(o.seconds/4, sz.BlocksPerSecond, 1), true)
	if err != nil {
		return nil, err
	}
	out.fingerprint = trace.Fingerprint(env.tr)
	pcfg := prowgen.Config{NumRequests: len(env.tr.Requests) - env.warm, NumObjects: sz.Objects,
		NumClients: sz.Clients, Alpha: sz.Alpha, OneTimerFrac: sz.OneTimerFrac, StackFrac: sz.StackFrac, Seed: o.seed}
	// The trace pipeline is timed on this workload's generator settings;
	// the replay is of exactly what the topology was sent.
	pipeline, err := setupSim(pcfg, rec)
	if err != nil {
		return nil, err
	}
	pipeline.pipelineMetrics(out.layer)
	chk := &simChecker{out: out, first: map[string]string{}}
	hier, err := simLayer(out, rec, env.tr, nil, 0, chk, func(s sim.Scheme) sim.Config {
		cfg := sz.simConfig(o.seed)
		cfg.Scheme = s
		return cfg
	})
	if err != nil {
		return nil, err
	}
	pool := env.tr.Slice(env.warm, len(env.tr.Requests))
	return finishTraced(out, rec, o, pool, sz.ObjectBytes, hier, "exact")
}

// simTraced measures a simulator workload's per-layer metrics.
func simTraced(sz simSizes, o options) (*runOutput, error) {
	out := newRunOutput()
	rec := newSpanRecorder()
	in, err := setupSim(sz.prowgenConfig(o.seed), rec)
	if err != nil {
		return nil, err
	}
	in.pipelineMetrics(out.layer)
	out.fingerprint = in.fingerprint
	chk, err := newSimChecker(out, sz, o)
	if err != nil {
		return nil, err
	}
	hier, err := simLayer(out, rec, in.tr, sz.Schemes, blocksFor(o.seconds/4, sz.PassesPerSecond, 1), chk,
		func(s sim.Scheme) sim.Config { return sz.config(s, o.seed) })
	if err != nil {
		return nil, err
	}
	if _, err := liveLayer(out, rec, liveProbe.scaled(o.scale), o.seed, 2, false); err != nil {
		return nil, err
	}
	dir := "exact"
	if sz.Bloom {
		dir = "bloom"
	}
	return finishTraced(out, rec, o, in.tr, 1024, hier, dir)
}

// finishTraced adds what every traced run has: the layer probes on the
// workload's stream, the Hier-GD budget, the host and runtime metrics,
// and the spans file.
func finishTraced(out *runOutput, rec *spanRecorder, o options, stream *trace.Trace, objectBytes int,
	hier *sim.Result, dirKind string) (*runOutput, error) {
	probes, err := layerProbes(newProbeStream(stream), objectBytes, o.seed, o.outDir)
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		out.layer[k] = v
	}
	// The share of Hier-GD's replay the layer costs account for: the
	// proxy policy runs on every request, the directory on every proxy
	// miss, and the P2P cluster on every lookup and pass-down.  The
	// rest (engine bookkeeping, latency accounting, the replay loop) is
	// the unexplained remainder, reported rather than hidden.
	proxyMisses := hier.Requests - hier.Sources[netmodel.SrcLocalProxy]
	explainedNs := probes["cache.gd.op_ns"]*float64(hier.Requests) +
		probes["directory."+dirKind+".lookup_ns"]*float64(proxyMisses) +
		probes["p2p.lookup_ns"]*float64(hier.P2P.Lookups) +
		probes["p2p.store_ns"]*float64(hier.P2P.Stores)
	out.layer["sim.hier-gd.budget_explained"] = explainedNs / (out.layer["sim.hier-gd.ns_per_req"] * float64(hier.Requests))

	out.layer["error_share"] = float64(out.failed) / float64(out.attempted)
	out.layer["host.canary_ns"] = canaryNs()
	out.layer["runtime.gc_pause_ms"], out.layer["runtime.heap_mb"] = gcSnapshot()
	path := filepath.Join(o.outDir, o.workload+".spans.jsonl")
	if err := rec.writeFile(path); err != nil {
		return nil, err
	}
	out.record["spans_file"] = path
	out.record["spans"] = len(rec.snapshot())
	return out, nil
}

// simLayer fills in the simulator-plane metrics from replays of tr, each
// a span, held against chk.  own is the workload's own plane, empty when
// the workload is a live one: its schemes are replayed passes times
// traced, each pass paired with an untraced one; the pairs' rate ratio
// is bench.trace_overhead and they count as attempted.  Every other
// scheme is replayed once, traced, for its row of the table.  It
// returns the Hier-GD result.
func simLayer(out *runOutput, rec *spanRecorder, tr *trace.Trace, own []sim.Scheme, passes int,
	chk *simChecker, cfgFor func(sim.Scheme) sim.Config) (*sim.Result, error) {
	m := out.layer
	var tracedBlocks, plainBlocks []block
	walls := map[sim.Scheme][]float64{}
	results := map[sim.Scheme]*sim.Result{}
	tracedPass := func(schemes []sim.Scheme, pass int) ([]block, error) {
		blocks, res, err := simPass(schemes, cfgFor, tr, pass, rec, chk)
		for i, s := range schemes {
			if err == nil {
				walls[s] = append(walls[s], blocks[i].wallS)
				results[s] = res[i]
			}
		}
		return blocks, err
	}
	for i := 0; i < passes && len(own) > 0; i++ {
		blocks, _, err := simPass(own, cfgFor, tr, 2*i, nil, chk)
		if err != nil {
			return nil, err
		}
		plainBlocks = append(plainBlocks, blocks...)
		if blocks, err = tracedPass(own, 2*i+1); err != nil {
			return nil, err
		}
		tracedBlocks = append(tracedBlocks, blocks...)
	}
	var rest []sim.Scheme
	for _, s := range allSchemes {
		if _, done := walls[s]; !done {
			rest = append(rest, s)
		}
	}
	if _, err := tracedPass(rest, 2*passes+1); err != nil {
		return nil, err
	}
	serialS := 0.0
	for _, s := range allSchemes {
		name := "sim." + schemeMetricName(s.String())
		m[name+".ns_per_req"] = median(walls[s]) * 1e9 / float64(tr.Len())
		m[name+".hit_ratio"] = 1 - originShare(results[s])
		serialS += median(walls[s])
	}
	hier := results[sim.HierGD]
	ratio := func(num, den int) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	m["sim.hier-gd.dir_false_pos_ratio"] = ratio(hier.DirectoryFalsePositives, hier.P2P.Lookups)
	m["sim.hier-gd.p2p_lookup_hit_ratio"] = ratio(hier.P2P.LookupHits, hier.P2P.Lookups)
	m["sim.hier-gd.route_hops_per_lookup"] = ratio(hier.P2P.RouteHops, hier.P2P.Lookups)
	m["sim.hier-gd.proxy_evictions"] = float64(hier.ProxyEvictions)
	m["sim.hier-gd.p2p_stores"] = float64(hier.P2P.Stores)
	m["sim.hier-gd.handoffs"] = float64(hier.P2P.Handoffs)
	m["sim.hier-gd.lost_on_failure"] = float64(hier.P2P.LostOnFailure)
	m["sim.hier-gd.failed_clients"] = float64(hier.FailedClients)

	// The same jobs dealt across core.RunJobs' workers: how much of the
	// serial rate each worker keeps.
	workers := runtime.GOMAXPROCS(0)
	parallel := make([]*sim.Result, len(allSchemes))
	errs := make([]error, len(allSchemes))
	d := rec.timed("core.runjobs", "", "", func() {
		core.RunJobs(workers, len(allSchemes), func(j int) {
			parallel[j], errs[j] = sim.Run(tr, cfgFor(allSchemes[j]))
		})
	})
	for j, err := range errs {
		if err != nil {
			return nil, err
		}
		chk.check(schemeMetricName(allSchemes[j].String()), tr.Len(), parallel[j])
	}
	m["core.runjobs_efficiency"] = serialS / (d.Seconds() * float64(workers))

	if len(own) > 0 {
		out.addBlocks(tracedBlocks)
		out.addBlocks(plainBlocks)
		m["bench.trace_overhead"] = reduceBlocks(tracedBlocks)["req_per_s"] / reduceBlocks(plainBlocks)["req_per_s"]
	}
	return hier, nil
}

// liveLayer sets a topology up with span handlers, measures pairs of
// one untraced and one traced block, and fills in the live-plane
// metrics.  own is as for simLayer.
func liveLayer(out *runOutput, rec *spanRecorder, sz liveSizes, seed int64, pairs int, own bool) (*liveEnv, error) {
	m := out.layer
	env, err := setupLive(sz, seed, rec, nil)
	if err != nil {
		return nil, err
	}
	defer env.close()

	var tracedBlocks, plainBlocks, all []block
	var lat []float64
	var tiers []uint8
	var stats httpcache.ProxyStats
	if max := env.blocksInPool() / 2; pairs > max {
		pairs = max // never wrap: calibration replays exactly what was issued
	}
	for i := 0; i < pairs; i++ {
		b, _, _, err := env.runBlock(2*i, false)
		if err != nil {
			return nil, err
		}
		plainBlocks = append(plainBlocks, b)
		before, err := env.proxyStats()
		if err != nil {
			return nil, err
		}
		tb, l, t, err := env.runBlock(2*i+1, true)
		if err != nil {
			return nil, err
		}
		after, err := env.proxyStats()
		if err != nil {
			return nil, err
		}
		tracedBlocks = append(tracedBlocks, tb)
		all = append(all, b, tb)
		lat = append(lat, l...)
		tiers = append(tiers, t...)
		stats.Requests += after.Requests - before.Requests
		stats.OriginFetch += after.OriginFetch - before.OriginFetch
		stats.CoalescedFetches += after.CoalescedFetches - before.CoalescedFetches
		stats.PassDowns += after.PassDowns - before.PassDowns
		stats.Diversions += after.Diversions - before.Diversions
		stats.DirEntries = after.DirEntries
		if tb.failed > 0 && out.firstErr == nil {
			out.firstErr = env.tgt.firstEr
		}
	}
	if own {
		out.addBlocks(all)
		m["bench.trace_overhead"] = reduceBlocks(tracedBlocks)["req_per_s"] / reduceBlocks(plainBlocks)["req_per_s"]
	}

	// Spans of the traced blocks.
	spans := rec.snapshot()
	agg := aggregateSpans(spans)
	for _, s := range []string{"proxy.fetch", "proxy.peer_lookup", "cache.object"} {
		st := agg["httpcache."+s]
		m["httpcache."+s+".calls"] = float64(st.calls)
		m["httpcache."+s+".busy_s"] = st.busySeconds()
		m["httpcache."+s+".self_us_mean"] = st.selfMeanUs()
	}
	for _, s := range []string{"proxy.accept_push", "cache.store", "cache.push"} {
		st := agg["httpcache."+s]
		m["httpcache."+s+".calls"] = float64(st.calls)
		m["httpcache."+s+".busy_s"] = st.busySeconds()
	}
	// transport = client span - the /fetch span of the same request.
	self := selfTimes(spans)
	fetchByReq := make(map[string]int64)
	var fetchSelfUs []float64
	for i, s := range spans {
		if s.Name == "httpcache.proxy.fetch" {
			fetchByReq[s.Req] = s.dur()
			fetchSelfUs = append(fetchSelfUs, float64(self[i])/1e3)
		}
	}
	var transportUs, clientUs []float64
	for _, s := range spans {
		if s.Name != "client" {
			continue
		}
		f, ok := fetchByReq[s.Req]
		if !ok {
			out.problemf("request %s has a client span but no /fetch span", s.Req)
			continue
		}
		transportUs = append(transportUs, float64(s.dur()-f)/1e3)
		clientUs = append(clientUs, float64(s.dur())/1e3)
	}
	m["transport.us_mean"] = mean(transportUs)
	m["transport.share"] = mean(transportUs) / mean(clientUs)

	// The floor: the same callers straight to the origin, whose handler
	// does nothing, so this is the transport measured on its own.
	rtt, err := originRTT(env, 4000)
	if err != nil {
		return nil, err
	}
	m["loopback.rtt_us_p50"] = rtt
	// What the parts, each measured on its own, account for of the
	// untraced blocks' median: transport (the origin round trip) plus
	// the handler's self time.  The rest is reported, not hidden.
	var plainP50 []float64
	for _, b := range plainBlocks {
		plainP50 = append(plainP50, b.p50us)
	}
	parts := rtt + median(fetchSelfUs)
	m["bench.p50_explained"] = parts / median(plainP50)
	m["bench.p50_remainder_us"] = median(plainP50) - parts

	// Counts must agree across the boundaries they were taken at.
	tracedReqs := 0
	for _, b := range tracedBlocks {
		tracedReqs += b.reqs
	}
	if got := agg["client"].calls; got != tracedReqs {
		out.problemf("%d client spans for %d traced requests", got, tracedReqs)
	}
	if got := agg["httpcache.proxy.fetch"].calls; got != tracedReqs {
		out.problemf("%d proxy /fetch spans for %d traced requests", got, tracedReqs)
	}
	if stats.Requests != tracedReqs {
		out.problemf("proxies counted %d requests for %d traced requests", stats.Requests, tracedReqs)
	}
	if len(tiers)+sumFailed(tracedBlocks) != tracedReqs {
		out.problemf("%d tier attributions + %d failures for %d traced requests", len(tiers), sumFailed(tracedBlocks), tracedReqs)
	}

	// Client-side view by tier.
	byTier := make([][]float64, len(tierNames))
	for i, t := range tiers {
		byTier[t] = append(byTier[t], lat[i])
	}
	for t, name := range tierNames {
		m["tier."+name+".share"] = float64(len(byTier[t])) / float64(len(tiers))
		m["tier."+name+".p50_us"] = percentile(byTier[t], 50)
	}
	m["loadgen.p999_us"] = percentile(lat, 99.9)
	m["httpcache.proxy.pass_downs"] = float64(stats.PassDowns)
	m["httpcache.proxy.diversions"] = float64(stats.Diversions)
	m["httpcache.proxy.coalesced_fetches"] = float64(stats.CoalescedFetches)
	m["httpcache.proxy.origin_fetches"] = float64(stats.OriginFetch)
	m["httpcache.proxy.dir_entries"] = float64(stats.DirEntries)
	perCall := func(hits, calls int) float64 {
		if calls == 0 {
			return 0
		}
		return float64(hits) / float64(calls)
	}
	m["httpcache.proxy.p2p_hit_per_lookup"] = perCall(len(byTier[loadgen.TierClientCache]), agg["httpcache.cache.object"].calls)
	m["httpcache.proxy.peer_hit_per_lookup"] = perCall(len(byTier[loadgen.TierRemoteProxy]), agg["httpcache.proxy.peer_lookup"].calls)

	// Live against the simulator on exactly what was issued.
	live := &loadgen.Result{Issued: env.warm}
	for _, b := range all {
		live.Issued += b.reqs
		live.Measured += b.reqs - b.failed
		for t, n := range b.tierCount {
			live.Tiers[t] += n
		}
	}
	cfg := sz.simConfig(seed)
	cfg.WarmupRequests = env.warm
	rep, err := loadgen.Calibrate(env.tr, live, cfg, 0)
	if err != nil {
		return nil, err
	}
	m["loadgen.calibration_delta_pp"] = 100 * rep.AggregateDelta
	out.record["live_plane"] = map[string]any{
		"sizes": sz, "traced_requests": tracedReqs, "tier_shares": tierShares(tracedBlocks),
		"latency_samples": len(lat), "samples_beyond_p999": len(lat) / 1000,
	}
	return env, nil
}

func sumFailed(blocks []block) int {
	n := 0
	for _, b := range blocks {
		n += b.failed
	}
	return n
}

// originRTT is the median of n direct GETs to the origin, issued the
// way the workload issues its own: liveWorkers callers, closed loop.
func originRTT(env *liveEnv, n int) (float64, error) {
	us := make([]float64, n)
	errs := make([]error, liveWorkers)
	var wg sync.WaitGroup
	for w := 0; w < liveWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n && errs[w] == nil; i += liveWorkers {
				start := time.Now()
				resp, err := env.tgt.client.Get(fmt.Sprintf("%s/obj/%d", env.topo.OriginURL, i%env.sz.Objects))
				if err == nil {
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				errs[w] = err
				us[i] = float64(time.Since(start).Nanoseconds()) / 1e3
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("origin round trip: %w", err)
		}
	}
	return percentile(us, 50), nil
}
