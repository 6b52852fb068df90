package loadgen

import (
	"context"
	"math"
	"net/http"
	"testing"
	"time"

	"webcache/internal/prowgen"
	"webcache/internal/sim"
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

// End-to-end: generate a small ProWGen trace, stand up a loopback
// topology sized from the simulator's capacity plan, drive the whole
// schedule closed-loop, and calibrate — live and simulated aggregate
// hit ratios must land close together.  This is the subsystem's core
// promise (the live deployment reproduces the model) exercised in one
// test.
func TestLoopbackCalibration(t *testing.T) {
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
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		topo.Close(ctx)
	}()

	sched, err := BuildSchedule(tr, topo.ProxyURLs, topo.OriginURL, simCfg.ProxyFor)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), sched, NewHTTPTarget(10*time.Second), Options{
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

	// Pin the plan the topology was sized from and replay through the
	// simulator.
	simCfg.ProxyCapacityOverride = proxyCap
	simCfg.ClientCapacityOverride = clientCap
	rep, err := Calibrate(tr, res, simCfg, 0.15)
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
}
