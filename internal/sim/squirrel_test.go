package sim

import (
	"testing"

	"webcache/internal/netmodel"
)

func TestSquirrelRuns(t *testing.T) {
	tr := testTrace(t, 40)
	res := run(t, tr, Config{Scheme: Squirrel, ProxyCacheFrac: 0.2, Seed: 1})
	sum := 0
	for _, n := range res.Sources {
		sum += n
	}
	if sum != tr.Len() {
		t.Fatalf("conservation broken: %d vs %d", sum, tr.Len())
	}
	// Squirrel has no proxy tier and no inter-proxy sharing.
	if res.Sources[netmodel.SrcLocalProxy] != 0 {
		t.Errorf("Squirrel served %d requests from a proxy cache", res.Sources[netmodel.SrcLocalProxy])
	}
	if res.Sources[netmodel.SrcRemoteProxy] != 0 {
		t.Errorf("Squirrel served %d requests from remote proxies", res.Sources[netmodel.SrcRemoteProxy])
	}
	if res.Sources[netmodel.SrcP2P] == 0 {
		t.Error("Squirrel never hit its home-node cache")
	}
	if res.P2P.Stores == 0 || res.P2P.Lookups == 0 {
		t.Error("Squirrel did not exercise the P2P machinery")
	}
}

func TestSquirrelSchemePredicates(t *testing.T) {
	if Squirrel.Cooperative() {
		t.Error("Squirrel cannot cooperate across organizations (firewalls)")
	}
	if !Squirrel.UsesClientCaches() {
		t.Error("Squirrel is built from client caches")
	}
	s, err := ParseScheme("squirrel")
	if err != nil || s != Squirrel {
		t.Errorf("ParseScheme(squirrel) = %v, %v", s, err)
	}
	// The paper's seven stay the paper's seven.
	for _, s := range AllSchemes() {
		if s == Squirrel {
			t.Error("Squirrel leaked into AllSchemes")
		}
	}
	if len(AllSchemes()) != 7 {
		t.Errorf("AllSchemes = %d", len(AllSchemes()))
	}
}

// The paper's §6 argument, quantified: within one organization
// Squirrel pools the same client caches Hier-GD does, but Hier-GD
// additionally wields the proxy cache and inter-proxy cooperation, so
// it must win.  Squirrel in turn beats nothing-but-browser-caches (NC
// with a tiny proxy) when the pooled cache carries weight.
func TestHierGDBeatsSquirrel(t *testing.T) {
	tr := testTrace(t, 41)
	sq := run(t, tr, Config{Scheme: Squirrel, ProxyCacheFrac: 0.2, Seed: 1})
	hg := run(t, tr, Config{Scheme: HierGD, ProxyCacheFrac: 0.2, Seed: 1})
	if hg.AvgLatency >= sq.AvgLatency {
		t.Errorf("Hier-GD (%.4f) did not beat Squirrel (%.4f)", hg.AvgLatency, sq.AvgLatency)
	}
}

// Squirrel's home-node hits bypass the proxy leg entirely, so its hit
// latency is Tp2p < Tl+Tp2p; its misses cost Ts (no proxy leg either).
func TestSquirrelLatencyAccounting(t *testing.T) {
	tr := testTrace(t, 42)
	res := run(t, tr, Config{Scheme: Squirrel, ProxyCacheFrac: 0.2, Seed: 1})
	net := netmodel.Default()
	hits := float64(res.Sources[netmodel.SrcP2P])
	misses := float64(res.Sources[netmodel.SrcServer])
	want := (hits*net.Tp2p + misses*net.Ts) / float64(res.Requests)
	if diff := res.AvgLatency - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("avg latency %.6f != reconstructed %.6f", res.AvgLatency, want)
	}
}
