package loadgen

import (
	"context"
	"strings"
	"testing"

	"webcache/internal/obs"
	"webcache/internal/prowgen"
	"webcache/internal/sim"
)

// Driving a live topology with tracing on must produce joined traces:
// the driver records the root (client RTT), every daemon hop joins the
// same id, and the merged export passes the Chrome schema validator.
func TestLiveTracePropagation(t *testing.T) {
	if testing.Short() {
		t.Skip("live loopback bench in -short mode")
	}
	tr, err := prowgen.Generate(prowgen.Config{
		NumRequests: 600, NumObjects: 80, NumClients: 20, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	simCfg := sim.Config{
		Scheme: sim.HierGD, NumProxies: 2, ClientsPerCluster: 10,
		P2PClientCaches: 2, Directory: sim.DirExact,
		ProxyCacheFrac: 0.10, ClientCacheFrac: 0.02, Seed: 1,
	}
	proxyCap, clientCap := simCfg.CapacityPlan(tr)
	const objectBytes = 64
	toBytes := func(units []uint64) []uint64 {
		out := make([]uint64, len(units))
		for i, u := range units {
			out[i] = u * objectBytes
		}
		return out
	}
	daemonTracer := obs.NewTracer(obs.TracerOptions{Origin: "daemon", Clock: obs.ClockWall})
	reg := obs.NewRegistry("live-trace-test")
	topo, err := StartLoopback(strictly(t, TopologyConfig{
		Proxies:            simCfg.NumProxies,
		CachesPerProxy:     simCfg.P2PClientCaches,
		ProxyCapacityBytes: toBytes(proxyCap),
		CacheCapacityBytes: toBytes(clientCap),
		ObjectBytes:        objectBytes,
		Tracer:             daemonTracer,
		Metrics:            reg,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Stop()

	sched, err := BuildSchedule(tr, topo.ProxyURLs, topo.OriginURL, simCfg.ProxyFor)
	if err != nil {
		t.Fatal(err)
	}
	driverTracer := obs.NewTracer(obs.TracerOptions{Origin: "loadgen", SampleEvery: 10, Clock: obs.ClockWall})
	res, err := Run(context.Background(), sched, NewHTTPTarget(), Options{
		Mode: ClosedLoop, Workers: 4,
		Obs:    reg,
		Tracer: driverTracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 {
		t.Fatalf("%d request errors", res.Errors)
	}

	roots := driverTracer.Snapshots()
	if len(roots) != 60 {
		t.Fatalf("driver sampled %d traces, want 60 (600 / 10)", len(roots))
	}
	rootIDs := map[string]bool{}
	for _, st := range roots {
		if !st.Root || st.Tier == "" || len(st.Spans) == 0 {
			t.Fatalf("malformed root trace %+v", st)
		}
		rootIDs[st.ID] = true
	}
	// Daemon-side: requests without a propagated id head-sample their
	// own root traces (standalone daemons stay observable); requests
	// the driver tagged join the driver's id.  Every sampled request
	// touched at least the front-end proxy, so joins >= roots.
	daemonSnaps := daemonTracer.Snapshots()
	knownIDs := map[string]bool{}
	for id := range rootIDs {
		knownIDs[id] = true
	}
	for _, st := range daemonSnaps {
		if st.Root {
			// A daemon's own head-sampled trace; its id propagates to the
			// daemons *it* calls, so downstream joins may reference it.
			knownIDs[st.ID] = true
		}
	}
	var joins, driverJoins int
	for _, st := range daemonSnaps {
		if st.Root {
			continue
		}
		joins++
		if rootIDs[st.ID] {
			driverJoins++
		}
		if !knownIDs[st.ID] {
			t.Fatalf("daemon trace %q joined an id nobody issued", st.ID)
		}
	}
	if driverJoins < len(roots) {
		t.Fatalf("daemons joined %d driver traces for %d sampled requests (total joins %d)",
			driverJoins, len(roots), joins)
	}

	// The merged Chrome export (driver + daemon spans) must validate.
	var sb strings.Builder
	if err := obs.WriteChromeTraces(&sb, append(driverTracer.Snapshots(), daemonTracer.Snapshots()...)); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace([]byte(sb.String())); err != nil {
		t.Fatalf("merged chrome export: %v", err)
	}

	// The per-tier latency histograms are registry-backed and folded
	// into the decomposition table the bench prints.
	if reg.Histogram("loadgen.latency").Count() == 0 {
		t.Fatal("registry latency histogram empty")
	}
	d := driverTracer.Decompose()
	if len(d.Tiers) == 0 {
		t.Fatal("no tiers in live decomposition")
	}
	if !strings.Contains(d.Table(), "proxy") {
		t.Fatalf("decomposition table:\n%s", d.Table())
	}
}
