package loadgen

import (
	"context"
	"testing"

	"webcache/internal/netmodel"
	"webcache/internal/obs"
	"webcache/internal/prowgen"
	"webcache/internal/sim"
)

// tierRecorder is a Target that notes which tier served each request,
// by its schedule index.
type tierRecorder struct {
	Target
	tiers []Tier
}

func (r *tierRecorder) Do(req ScheduledRequest) Outcome {
	o := r.Target.Do(req)
	r.tiers[req.Index] = o.Tier
	return o
}

// TestReplayAgreesPerRequest is a differential replay of Hier-GD: one
// closed-loop worker drives a loopback topology in trace order, and the
// simulator replays the same trace at the capacities the topology was
// sized from (pinned, as Calibrate pins them).  Request by request, the
// rung that served live (X-Served-By) is held to the rung that served
// in the simulator (each root trace's tier).
//
// The two agree on 80-89 % of requests (200 runs: min 80.5 %, median
// 84.5 %), so the floor is 80 %.  Each client cache holds one object
// here, and the live ring places a key by the hash of a daemon's
// ephemeral host:port where the simulator's Pastry ring uses seeded node
// ids: a pass-down lands on a different cache and evicts a different
// object, which is also why the first divergence moves from run to run
// (DESIGN §13, "One copy of each shared mechanism").
func TestReplayAgreesPerRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("live loopback replay in -short mode")
	}
	const proxies, caches, clients, objectBytes = 2, 3, 40, 512
	tr, err := prowgen.Generate(prowgen.Config{NumRequests: 1500, NumObjects: 200, NumClients: clients, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := LoopbackSimConfig(proxies, caches, clients, 1)
	proxyCap, clientCap := cfg.CapacityPlan(tr)
	topo, err := StartLoopback(TopologyConfig{
		Proxies:            proxies,
		CachesPerProxy:     caches,
		ProxyCapacityBytes: UnitsToBytes(proxyCap, objectBytes),
		CacheCapacityBytes: UnitsToBytes(clientCap, objectBytes),
		ObjectBytes:        objectBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(topo.Stop)
	sched, err := BuildSchedule(tr, topo.ProxyURLs, topo.OriginURL, cfg.ProxyFor)
	if err != nil {
		t.Fatal(err)
	}
	tgt := NewHTTPTarget()
	t.Cleanup(tgt.CloseIdleConnections)
	rec := &tierRecorder{Target: tgt, tiers: make([]Tier, tr.Len())}
	if _, err := Run(context.Background(), sched, rec, Options{Mode: ClosedLoop, Workers: 1}); err != nil {
		t.Fatal(err)
	}

	cfg.ProxyCapacityOverride, cfg.ClientCapacityOverride = proxyCap, clientCap
	cfg.Tracer = obs.NewTracer(obs.TracerOptions{Origin: "sim", Limit: tr.Len()})
	if _, err := sim.Run(tr, cfg); err != nil {
		t.Fatal(err)
	}
	roots := cfg.Tracer.Snapshots()
	if len(roots) != tr.Len() {
		t.Fatalf("the simulator traced %d of %d requests", len(roots), tr.Len())
	}
	agree, first := 0, -1
	for i, root := range roots {
		simSrc, _ := netmodel.ParseSource(root.Tier)
		if liveSrc, ok := rec.tiers[i].Source(); ok && liveSrc == simSrc {
			agree++
		} else if first < 0 {
			first = i
		}
	}
	const floor = 0.80
	rate := float64(agree) / float64(tr.Len())
	t.Logf("live and simulated rungs agree on %d of %d requests (%.2f%%)", agree, tr.Len(), 100*rate)
	if first >= 0 {
		r := tr.Requests[first]
		t.Logf("first divergence: request %d (client %d, object %d) served live by %v, simulated by %s",
			first, r.Client, r.Object, rec.tiers[first], roots[first].Tier)
	}
	if rate < floor {
		t.Errorf("live and simulated rungs agree on %.2f%% of requests, under the %.0f%% floor", 100*rate, 100*floor)
	}
}
