package loadgen

import (
	"context"
	"math"
	"net/http"
	"testing"

	"webcache/internal/httpcache"
	"webcache/internal/netmodel"
	"webcache/internal/prowgen"
	"webcache/internal/sim"
	"webcache/internal/trace"
	"webcache/internal/wiretest"
)

// strictly puts every daemon of a loopback topology behind the framing
// check: a handler that writes an object body without declaring its
// length fails the test that started it.
func strictly(t *testing.T, cfg TopologyConfig) TopologyConfig {
	cfg.WrapProxy = func(_ int, h http.Handler) http.Handler { return wiretest.StrictFraming(t, h) }
	cfg.WrapCache = func(_, _ int, h http.Handler) http.Handler { return wiretest.StrictFraming(t, h) }
	return cfg
}

// calibrationRun generates a small ProWGen trace, stands up a loopback
// topology sized from the simulator's capacity plan and drives the whole
// schedule closed-loop.  It returns the trace, the live result, the
// simulator configuration with the plan pinned, and the topology.
func calibrationRun(t *testing.T) (*trace.Trace, *Result, sim.Config, *Topology) {
	t.Helper()
	if testing.Short() {
		t.Skip("live loopback bench in -short mode")
	}
	tr, err := prowgen.Generate(prowgen.Config{
		NumRequests: 2500,
		NumObjects:  250,
		NumClients:  40,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Past net/http's 2 KiB pre-chunk buffer, so that an undeclared
	// length anywhere in the cascade shows (strictly).
	const objectBytes = 4096
	simCfg := sim.Config{
		Scheme:            sim.HierGD,
		NumProxies:        2,
		ClientsPerCluster: 20,
		P2PClientCaches:   3,
		Directory:         sim.DirExact,
		ProxyCacheFrac:    0.10,
		ClientCacheFrac:   0.02,
		WarmupRequests:    250,
		Seed:              1,
	}
	proxyCap, clientCap := simCfg.CapacityPlan(tr)
	toBytes := func(units []uint64) []uint64 {
		out := make([]uint64, len(units))
		for i, u := range units {
			out[i] = u * objectBytes
		}
		return out
	}
	topo, err := StartLoopback(strictly(t, TopologyConfig{
		Proxies:            simCfg.NumProxies,
		CachesPerProxy:     simCfg.P2PClientCaches,
		ProxyCapacityBytes: toBytes(proxyCap),
		CacheCapacityBytes: toBytes(clientCap),
		ObjectBytes:        objectBytes,
	}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(topo.Stop)

	sched, err := BuildSchedule(tr, topo.ProxyURLs, topo.OriginURL, simCfg.ProxyFor)
	if err != nil {
		t.Fatal(err)
	}
	// Cleanups run last first: the driver's pooled connections are gone
	// before the topology drains (a dialed, unused one stalls Shutdown).
	tgt := NewHTTPTarget()
	t.Cleanup(tgt.CloseIdleConnections)
	res, err := Run(context.Background(), sched, tgt, Options{
		Mode:    ClosedLoop,
		Workers: 8,
		Warmup:  simCfg.WarmupRequests,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued != tr.Len() {
		t.Fatalf("issued %d of %d", res.Issued, tr.Len())
	}
	if res.Errors > 0 {
		t.Fatalf("%d request errors (of %d measured)", res.Errors, res.Measured)
	}
	if res.Tiers[TierUnknown] > 0 {
		t.Fatalf("%d responses without a recognized %s header", res.Tiers[TierUnknown], "X-Served-By")
	}
	// Something must be getting cached, or the deployment is broken.
	if res.AggregateHitRatio() <= 0 {
		t.Fatal("live aggregate hit ratio is zero")
	}
	simCfg.ProxyCapacityOverride = proxyCap
	simCfg.ClientCapacityOverride = clientCap
	return tr, res, simCfg, topo
}

// End-to-end: live and simulated aggregate hit ratios over the same
// requests must land close together.  This is the subsystem's core
// promise (the live deployment reproduces the model) exercised in one
// test.
//
// One mechanism, both halves: the live proxies pull each other's digest
// every httpcache.DigestEvery of their own requests, which is the
// simulator's DigestInterval of DigestEvery × NumProxies over all of
// them, so that is the replay the live run is held to; on this small
// trace a digest is stale enough that perfect peer knowledge is the
// further model of the two.  Both prices of a stale digest are reported:
// a false positive (a lookup the peer answers 404; counted live, and by
// the simulator as a stale probe) and a false negative (a remote hit lost
// to the origin, which only the simulator can count: the remote hits of
// its perfect-knowledge replay that its paired one lacks).
func TestLoopbackCalibration(t *testing.T) {
	tr, res, perfect, topo := calibrationRun(t)
	var live httpcache.ProxyStats
	for p := range topo.Proxies {
		st, err := topo.ProxyStats(p)
		if err != nil {
			t.Fatal(err)
		}
		live.DigestPulls += st.DigestPulls
		live.DigestSkips += st.DigestSkips
		live.DigestFalsePos += st.DigestFalsePos
		live.RemoteHits += st.RemoteHits
	}
	if live.DigestPulls == 0 || live.DigestSkips == 0 {
		t.Fatalf("the live proxies pulled %d digests and skipped %d lookups on them", live.DigestPulls, live.DigestSkips)
	}

	paired := perfect
	paired.DigestInterval = httpcache.DigestEvery * perfect.NumProxies
	rep, err := Calibrate(tr, res, paired, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s\n%s", res.Table(), rep.Table())
	if rep.SimRequests == 0 || rep.LiveRequests == 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
	if math.Abs(rep.AggregateDelta) > 0.15 {
		t.Fatalf("live %.3f vs sim %.3f aggregate hit ratio: |delta| %.3f > 0.15",
			rep.AggregateLive, rep.AggregateSim, math.Abs(rep.AggregateDelta))
	}
	if !rep.WithinTolerance {
		t.Fatal("report verdict outside tolerance")
	}
	far, err := Calibrate(tr, res, perfect, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(far.AggregateDelta) < math.Abs(rep.AggregateDelta) {
		t.Errorf("live is %+.2f pp from the perfect-knowledge replay and %+.2f pp from the paired one",
			100*far.AggregateDelta, 100*rep.AggregateDelta)
	}

	replay := func(cfg sim.Config) *sim.Result {
		r, err := sim.Run(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	all, stale := replay(perfect), replay(paired)
	remote := func(r *sim.Result) int { return r.Sources[netmodel.SrcRemoteProxy] }
	t.Logf("live: %d digest pulls, %d lookups skipped, %d false positives, %d remote hits",
		live.DigestPulls, live.DigestSkips, live.DigestFalsePos, live.RemoteHits)
	t.Logf("sim at DigestInterval %d: %d false positives (stale probes), %d false negatives (%d remote hits with perfect knowledge, %d paired); perfect knowledge is %+.2f pp from live",
		paired.DigestInterval, stale.DigestStaleProbes, remote(all)-remote(stale), remote(all), remote(stale), 100*far.AggregateDelta)
}
