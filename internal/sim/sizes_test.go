package sim

import (
	"testing"

	"webcache/internal/cache"
	"webcache/internal/netmodel"
	"webcache/internal/prowgen"
	"webcache/internal/trace"
)

// variableSizeTrace generates a workload with the lognormal/Pareto
// size model — the extension beyond the paper's unit-size assumption.
func variableSizeTrace(t testing.TB) *trace.Trace {
	t.Helper()
	tr, err := prowgen.Generate(prowgen.Config{
		NumRequests:   60_000,
		NumObjects:    2_000,
		NumClients:    200,
		VariableSizes: true,
		Seed:          31,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestAllSchemesRunWithVariableSizes(t *testing.T) {
	tr := variableSizeTrace(t)
	nc := run(t, tr, Config{Scheme: NC, ProxyCacheFrac: 0.2, Seed: 1})
	for _, s := range AllSchemes() {
		res := run(t, tr, Config{Scheme: s, ProxyCacheFrac: 0.2, Seed: 1})
		sum := 0
		for _, n := range res.Sources {
			sum += n
		}
		if sum != tr.Len() {
			t.Errorf("%v: conservation broken (%d vs %d)", s, sum, tr.Len())
		}
		if s != NC {
			if g := netmodel.Gain(res.AvgLatency, nc.AvgLatency); g <= 0 {
				t.Errorf("%v: non-positive gain %.3f with variable sizes", s, g)
			}
		}
	}
}

func TestVariableSizesInfiniteCacheInUnits(t *testing.T) {
	tr := variableSizeTrace(t)
	cfg := Config{Scheme: NC, ProxyCacheFrac: 0.2, Seed: 1}
	cfg.fillDefaults()
	sz := computeSizing(tr, cfg)
	// With multi-KB objects the unit count must far exceed the object
	// count.
	st := trace.Analyze(tr)
	for p, n := range sz.infinite {
		if n <= st.MultiAccessed {
			t.Errorf("cluster %d: infinite units %d <= multi-accessed objects %d", p, n, st.MultiAccessed)
		}
	}
}

func TestPlacementWithSizesRespectsUnits(t *testing.T) {
	in := cache.PlacementInput{
		Freq: [][]float64{{100, 90, 80, 70}},
		Tiers: []cache.Tier{
			{Proxy: 0, Capacity: 10, HitLatency: 0.05},
		},
		ServerLatency: 1,
		RemoteLatency: 0.1,
		Cooperative:   false,
		Sizes:         []uint32{8, 4, 4, 2},
	}
	pl := new(cache.Placement)
	if err := pl.Compute(in); err != nil {
		t.Fatal(err)
	}
	used := 0
	for o, tier := range pl.ByProxy[0] {
		if tier >= 0 {
			used += int(in.Sizes[o])
		}
	}
	if used > 10 {
		t.Fatalf("placement used %d units of 10", used)
	}
	// Density favours the small objects: 90/4, 80/4 and 70/2 beat
	// 100/8, so objects 1,2,3 (10 units) should fill the tier.
	for _, o := range []trace.ObjectID{1, 2, 3} {
		if pl.ByProxy[0][o] < 0 {
			t.Errorf("dense object %d not placed", o)
		}
	}
	if pl.ByProxy[0][0] >= 0 {
		t.Error("bulky object 0 placed over denser set")
	}
}

func TestPlacementOversizeObjectSkipped(t *testing.T) {
	in := cache.PlacementInput{
		Freq:          [][]float64{{1000}},
		Tiers:         []cache.Tier{{Proxy: 0, Capacity: 4, HitLatency: 0.05}},
		ServerLatency: 1,
		RemoteLatency: 0.1,
		Sizes:         []uint32{100},
	}
	pl := new(cache.Placement)
	if err := pl.Compute(in); err != nil {
		t.Fatal(err)
	}
	if pl.ByProxy[0][0] >= 0 {
		t.Error("object larger than the tier placed anyway")
	}
}

func TestPlacementSizesValidation(t *testing.T) {
	in := cache.PlacementInput{
		Freq:          [][]float64{{1, 2}},
		Tiers:         []cache.Tier{{Proxy: 0, Capacity: 4, HitLatency: 0.05}},
		ServerLatency: 1,
		RemoteLatency: 0.1,
		Sizes:         []uint32{1}, // wrong length
	}
	if err := new(cache.Placement).Compute(in); err == nil {
		t.Error("mismatched sizes accepted")
	}
}

// The per-run client table is the paper's mapping (client c is member
// c' mod C of proxy c' / C, c' = c mod P*C) for every client id of the
// trace, also the ones past P*C, and is what ProxyFor hands the live
// load generator.
func TestClientTableMatchesMapping(t *testing.T) {
	cfg := Config{Scheme: NC, NumProxies: 3, ClientsPerCluster: 7}
	cfg.fillDefaults()
	tr := &trace.Trace{NumClients: 50, NumObjects: 1,
		Requests: []trace.Request{{Client: 49, Size: 1}, {Client: 49, Size: 1}}}
	sz := computeSizing(tr, cfg)
	if len(sz.clients) != tr.NumClients {
		t.Fatalf("table covers %d clients, trace has %d", len(sz.clients), tr.NumClients)
	}
	for c, at := range sz.clients {
		wrapped := c % 21
		if at.proxy != wrapped/7 || at.member != wrapped%7 {
			t.Errorf("client %d sits at (%d, %d), want (%d, %d)", c, at.proxy, at.member, wrapped/7, wrapped%7)
		}
		if p := cfg.ProxyFor(trace.ClientID(c)); p != at.proxy {
			t.Errorf("ProxyFor(%d) = %d, table says %d", c, p, at.proxy)
		}
	}
	// Client 49 wraps onto cluster (49 mod 21) / 7 = 1: its repeated
	// object is that cluster's whole infinite cache.
	if sz.infinite[0] != 0 || sz.infinite[1] != 1 || sz.infinite[2] != 0 {
		t.Errorf("infinite cache sizes %v, want [0 1 0]", sz.infinite)
	}
}
