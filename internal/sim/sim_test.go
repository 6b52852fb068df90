package sim

import (
	"math"
	"testing"

	"webcache/internal/cache"
	"webcache/internal/netmodel"
	"webcache/internal/prowgen"
	"webcache/internal/trace"
)

// testTrace generates a small default-shaped workload once per test
// binary; runs are cheap against it.
var testTraceCache = map[int64]*trace.Trace{}

func testTrace(t testing.TB, seed int64) *trace.Trace {
	t.Helper()
	if tr, ok := testTraceCache[seed]; ok {
		return tr
	}
	tr, err := prowgen.Generate(prowgen.Config{
		NumRequests:  60_000,
		NumObjects:   3_000,
		NumClients:   200,
		OneTimerFrac: 0.5,
		Alpha:        0.7,
		StackFrac:    0.2,
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	testTraceCache[seed] = tr
	return tr
}

func run(t testing.TB, tr *trace.Trace, cfg Config) *Result {
	t.Helper()
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatalf("Run(%v): %v", cfg.Scheme, err)
	}
	return res
}

func gains(t testing.TB, tr *trace.Trace, frac float64, schemes ...Scheme) map[Scheme]float64 {
	t.Helper()
	nc := run(t, tr, Config{Scheme: NC, ProxyCacheFrac: frac, Seed: 1})
	out := map[Scheme]float64{NC: 0}
	for _, s := range schemes {
		r := run(t, tr, Config{Scheme: s, ProxyCacheFrac: frac, Seed: 1})
		out[s] = netmodel.Gain(r.AvgLatency, nc.AvgLatency)
	}
	return out
}

func TestRunConservation(t *testing.T) {
	tr := testTrace(t, 1)
	for _, s := range AllSchemes() {
		res := run(t, tr, Config{Scheme: s, ProxyCacheFrac: 0.3, Seed: 1})
		if res.Requests != tr.Len() {
			t.Errorf("%v: requests %d != trace %d", s, res.Requests, tr.Len())
		}
		sum := 0
		for _, n := range res.Sources {
			sum += n
		}
		if sum != res.Requests {
			t.Errorf("%v: source counts %d != requests %d", s, sum, res.Requests)
		}
		if res.AvgLatency <= 0 {
			t.Errorf("%v: avg latency %g", s, res.AvgLatency)
		}
		// Latency must be bounded by pure-server and pure-hit extremes.
		net := netmodel.Default()
		if res.AvgLatency < net.Tl || res.AvgLatency > net.Tl+net.Ts {
			t.Errorf("%v: avg latency %g outside [%g, %g]", s, res.AvgLatency, net.Tl, net.Tl+net.Ts)
		}
	}
}

// The paper's headline ordering (Figure 2): more coordination and
// client caches both help.
func TestSchemeOrdering(t *testing.T) {
	tr := testTrace(t, 2)
	g := gains(t, tr, 0.2, SC, FC, NCEC, SCEC, FCEC, HierGD)
	// Cooperation helps: SC > NC; coordination helps more: FC >= SC.
	if g[SC] <= 0 {
		t.Errorf("SC gain %.3f not positive", g[SC])
	}
	if g[FC] < g[SC] {
		t.Errorf("FC gain %.3f < SC gain %.3f", g[FC], g[SC])
	}
	// Exploiting client caches helps each base scheme.
	if g[NCEC] <= 0 {
		t.Errorf("NC-EC gain %.3f not positive", g[NCEC])
	}
	if g[SCEC] <= g[SC] {
		t.Errorf("SC-EC gain %.3f <= SC gain %.3f", g[SCEC], g[SC])
	}
	if g[FCEC] < g[FC] {
		t.Errorf("FC-EC gain %.3f < FC gain %.3f", g[FCEC], g[FC])
	}
	// Hier-GD beats the simple-cooperation schemes (paper: outperforms
	// SC-EC, SC and NC-EC).
	for _, s := range []Scheme{SC, NCEC} {
		if g[HierGD] <= g[s] {
			t.Errorf("Hier-GD gain %.3f <= %v gain %.3f", g[HierGD], s, g[s])
		}
	}
	// FC-EC is the upper bound among all schemes.
	for s, v := range g {
		if v > g[FCEC]+1e-9 {
			t.Errorf("%v gain %.3f exceeds FC-EC upper bound %.3f", s, v, g[FCEC])
		}
	}
}

// Paper: Hier-GD "performs even better than FC when the size of
// individual proxy caches is small".
func TestHierGDBeatsFCAtSmallCaches(t *testing.T) {
	tr := testTrace(t, 3)
	g := gains(t, tr, 0.1, FC, HierGD)
	if g[HierGD] <= g[FC] {
		t.Errorf("at 10%% cache, Hier-GD gain %.3f <= FC gain %.3f", g[HierGD], g[FC])
	}
}

// Gains shrink as the proxy cache grows (Figure 2's downward slope for
// the EC schemes' advantage).
func TestGainShrinksWithCacheSize(t *testing.T) {
	tr := testTrace(t, 4)
	small := gains(t, tr, 0.1, SCEC)[SCEC]
	large := gains(t, tr, 0.9, SCEC)[SCEC]
	if large >= small {
		t.Errorf("SC-EC gain grew with cache size: %.3f -> %.3f", small, large)
	}
}

func TestDeterminism(t *testing.T) {
	tr := testTrace(t, 5)
	for _, s := range []Scheme{SC, HierGD} {
		a := run(t, tr, Config{Scheme: s, ProxyCacheFrac: 0.2, Seed: 9})
		b := run(t, tr, Config{Scheme: s, ProxyCacheFrac: 0.2, Seed: 9})
		if a.AvgLatency != b.AvgLatency || a.Sources != b.Sources {
			t.Errorf("%v: nondeterministic results", s)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	tr := testTrace(t, 6)
	bad := []Config{
		{Scheme: Scheme(99)},
		{Scheme: NC, ProxyCacheFrac: -1},
		{Scheme: NC, ProxyCacheFrac: 2},
		{Scheme: NC, ClientCacheFrac: 2},
		{Scheme: NC, NumProxies: -1},
		{Scheme: NC, ProxyCacheFrac: math.NaN()},
		{Scheme: NC, ClientCacheFrac: math.NaN()},
		{Scheme: HierGD, FailEvery: -1},
		{Scheme: HierGD, Directory: DirectoryKind(7)},
		{Scheme: HierGD, Directory: -1},
	}
	for i, cfg := range bad {
		if _, err := Run(tr, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	empty := &trace.Trace{NumClients: 1, NumObjects: 1}
	if _, err := Run(empty, Config{Scheme: NC}); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestParseScheme(t *testing.T) {
	for _, s := range AllSchemes() {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseScheme("hier-gd"); err != nil {
		t.Error("lower-case parse failed")
	}
	if _, err := ParseScheme("scec"); err != nil {
		t.Error("hyphen-free parse failed")
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Error("bogus scheme accepted")
	}
	if Scheme(99).String() == "" {
		t.Error("unknown scheme String empty")
	}
}

func TestSchemePredicates(t *testing.T) {
	if NC.Cooperative() || NC.UsesClientCaches() {
		t.Error("NC predicates wrong")
	}
	if !SCEC.Cooperative() || !SCEC.UsesClientCaches() {
		t.Error("SC-EC predicates wrong")
	}
	if !HierGD.Cooperative() || !HierGD.UsesClientCaches() {
		t.Error("Hier-GD predicates wrong")
	}
}

func TestHierGDUsesP2PMechanisms(t *testing.T) {
	tr := testTrace(t, 7)
	res := run(t, tr, Config{Scheme: HierGD, ProxyCacheFrac: 0.15, Seed: 1})
	if res.P2P.Stores == 0 {
		t.Error("no pass-down stores")
	}
	if res.P2P.Lookups == 0 || res.P2P.LookupHits == 0 {
		t.Errorf("lookups=%d hits=%d", res.P2P.Lookups, res.P2P.LookupHits)
	}
	if res.Sources[netmodel.SrcP2P] == 0 {
		t.Error("no requests served from the P2P client cache")
	}
	if res.P2P.PiggybackSave == 0 {
		t.Error("piggybacking never used")
	}
	if res.P2P.Pushes == 0 {
		t.Error("push mechanism never used (2 proxies share objects)")
	}
	if res.DirectoryMemoryBytes == 0 {
		t.Error("directory memory unreported")
	}
	// Exact directory never reports false positives for live objects,
	// but entries can go stale only through failures (none here) —
	// diversion receipts keep it exact.
	if res.DirectoryFalsePositives != 0 {
		t.Errorf("exact directory produced %d false lookups", res.DirectoryFalsePositives)
	}
}

func TestHierGDBloomDirectoryCloseToExact(t *testing.T) {
	tr := testTrace(t, 8)
	exact := run(t, tr, Config{Scheme: HierGD, ProxyCacheFrac: 0.15, Seed: 1})
	blm := run(t, tr, Config{Scheme: HierGD, ProxyCacheFrac: 0.15, Directory: DirBloom, Seed: 1})
	if blm.DirectoryMemoryBytes >= exact.DirectoryMemoryBytes {
		t.Errorf("bloom dir memory %d >= exact %d", blm.DirectoryMemoryBytes, exact.DirectoryMemoryBytes)
	}
	if math.Abs(blm.AvgLatency-exact.AvgLatency)/exact.AvgLatency > 0.05 {
		t.Errorf("bloom latency %.4f deviates >5%% from exact %.4f", blm.AvgLatency, exact.AvgLatency)
	}
}

func TestHierGDNoPiggybackCostsMoreMessages(t *testing.T) {
	tr := testTrace(t, 9)
	with := run(t, tr, Config{Scheme: HierGD, ProxyCacheFrac: 0.15, Seed: 1})
	without := run(t, tr, Config{Scheme: HierGD, ProxyCacheFrac: 0.15, DisablePiggyback: true, Seed: 1})
	if without.P2P.Messages <= with.P2P.Messages {
		t.Errorf("messages without piggyback (%d) <= with (%d)", without.P2P.Messages, with.P2P.Messages)
	}
	if with.P2P.PiggybackSave == 0 || without.P2P.PiggybackSave != 0 {
		t.Errorf("piggyback accounting wrong: %d / %d", with.P2P.PiggybackSave, without.P2P.PiggybackSave)
	}
	// The reference stream is identical, so hit behaviour matches.
	if with.AvgLatency != without.AvgLatency {
		t.Errorf("piggybacking changed latency: %.4f vs %.4f", with.AvgLatency, without.AvgLatency)
	}
}

func TestHierGDFailureInjection(t *testing.T) {
	tr := testTrace(t, 10)
	res := run(t, tr, Config{Scheme: HierGD, ProxyCacheFrac: 0.15, FailEvery: 5_000, Seed: 1})
	if res.FailedClients == 0 {
		t.Fatal("no failures injected")
	}
	if res.P2P.LostOnFailure == 0 {
		t.Error("failures lost no objects")
	}
	healthy := run(t, tr, Config{Scheme: HierGD, ProxyCacheFrac: 0.15, Seed: 1})
	if res.AvgLatency < healthy.AvgLatency {
		t.Errorf("failures improved latency: %.4f < %.4f", res.AvgLatency, healthy.AvgLatency)
	}
	// With replacement the degradation should be milder or equal.
	replaced := run(t, tr, Config{Scheme: HierGD, ProxyCacheFrac: 0.15, FailEvery: 5_000, ReplaceFailed: true, Seed: 1})
	if replaced.AvgLatency > res.AvgLatency*1.05 {
		t.Errorf("replacement made things notably worse: %.4f vs %.4f", replaced.AvgLatency, res.AvgLatency)
	}
}

func TestClientClusterSizeHelpsHierGD(t *testing.T) {
	// Figure 5(c): more client caches -> bigger P2P cache -> more gain.
	tr := testTrace(t, 12)
	nc := run(t, tr, Config{Scheme: NC, ProxyCacheFrac: 0.1, Seed: 1})
	small := run(t, tr, Config{Scheme: HierGD, ProxyCacheFrac: 0.1, ClientsPerCluster: 20, Seed: 1})
	large := run(t, tr, Config{Scheme: HierGD, ProxyCacheFrac: 0.1, ClientsPerCluster: 100, Seed: 1})
	gs := netmodel.Gain(small.AvgLatency, nc.AvgLatency)
	gl := netmodel.Gain(large.AvgLatency, nc.AvgLatency)
	if gl <= gs {
		t.Errorf("gain did not grow with cluster size: %.3f (20) vs %.3f (100)", gs, gl)
	}
}

func TestProxyClusterSizeHelpsSC(t *testing.T) {
	// Figure 5(d): more proxies -> more sharing opportunities.
	tr := testTrace(t, 13)
	gain := func(numProxies int) float64 {
		nc := run(t, tr, Config{Scheme: NC, NumProxies: numProxies, ClientsPerCluster: 20, ProxyCacheFrac: 0.1, Seed: 1})
		sc := run(t, tr, Config{Scheme: SC, NumProxies: numProxies, ClientsPerCluster: 20, ProxyCacheFrac: 0.1, Seed: 1})
		return netmodel.Gain(sc.AvgLatency, nc.AvgLatency)
	}
	if g2, g5 := gain(2), gain(5); g5 <= g2 {
		t.Errorf("SC gain did not grow with proxy cluster: %.3f (2) vs %.3f (5)", g2, g5)
	}
}

func TestNetworkSensitivity(t *testing.T) {
	// Figure 5(a): larger Ts/Tc -> larger Hier-GD gain.
	tr := testTrace(t, 14)
	gain := func(ratio float64) float64 {
		net, err := netmodel.New(netmodel.Params{ServerProxyRatio: ratio})
		if err != nil {
			t.Fatal(err)
		}
		nc := run(t, tr, Config{Scheme: NC, Net: net, ProxyCacheFrac: 0.2, Seed: 1})
		hg := run(t, tr, Config{Scheme: HierGD, Net: net, ProxyCacheFrac: 0.2, Seed: 1})
		return netmodel.Gain(hg.AvgLatency, nc.AvgLatency)
	}
	if g2, g10 := gain(2), gain(10); g10 <= g2 {
		t.Errorf("gain did not grow with Ts/Tc: %.3f (2) vs %.3f (10)", g2, g10)
	}
}

func TestResultString(t *testing.T) {
	tr := testTrace(t, 15)
	res := run(t, tr, Config{Scheme: SC, ProxyCacheFrac: 0.2, Seed: 1})
	if res.String() == "" {
		t.Error("empty result string")
	}
}

func TestTieredCachePromoteDemote(t *testing.T) {
	tc := newTieredCache(2, 3, 12, nil, "t")
	ins := func(obj trace.ObjectID) { tc.insert(cache.Entry{Obj: obj, Size: 1, Cost: 1}) }
	ins(1)
	ins(2)
	ins(3) // proxy tier full: someone demotes to client tier
	if tc.len() != 3 {
		t.Fatalf("population = %d, want 3", tc.len())
	}
	if got := tc.access(1); got == tierMiss {
		t.Fatal("object 1 lost from unified cache")
	}
	// Fill the client tier and beyond: total capacity 5.
	for obj := trace.ObjectID(4); obj <= 9; obj++ {
		ins(obj)
	}
	if tc.len() > 5 {
		t.Fatalf("population %d exceeds unified capacity 5", tc.len())
	}
	// Exclusivity: no object may be in both tiers.
	for obj := trace.ObjectID(0); obj < 12; obj++ {
		if tc.upper.Contains(obj) && tc.lower.Contains(obj) {
			t.Fatalf("object %d duplicated across tiers", obj)
		}
	}
}

func TestTieredCacheClientHitPromotes(t *testing.T) {
	tc := newTieredCache(1, 2, 12, nil, "t")
	tc.insert(cache.Entry{Obj: 1, Size: 1, Cost: 1})
	tc.insert(cache.Entry{Obj: 2, Size: 1, Cost: 1}) // 1 demotes
	if !tc.lower.Contains(1) {
		t.Fatal("expected 1 in client tier")
	}
	if got := tc.access(1); got != tierClient {
		t.Fatalf("access(1) = %v, want tierClient", got)
	}
	if !tc.upper.Contains(1) {
		t.Error("client-tier hit did not promote")
	}
	if tc.lower.Contains(1) {
		t.Error("promoted object still in client tier")
	}
}

// The non-EC schemes' unified cache is the proxy tier alone: nothing
// demotes, and an object the proxy tier evicted is a miss.
func TestTieredCacheWithoutClientTier(t *testing.T) {
	tc := newTieredCache(2, 0, 12, nil, "t")
	if tc.lower != nil {
		t.Fatal("a zero client-tier capacity built a client tier")
	}
	for obj := trace.ObjectID(0); obj < 5; obj++ {
		tc.insert(cache.Entry{Obj: obj, Size: 1, Cost: 1})
	}
	if tc.len() != 2 || tc.upperEvictions != 3 {
		t.Fatalf("proxy tier holds %d after %d evictions, want 2 after 3", tc.len(), tc.upperEvictions)
	}
	for obj := trace.ObjectID(0); obj < 5; obj++ {
		want := tierMiss
		if tc.upper.Contains(obj) {
			want = tierProxy
		}
		if got := tc.access(obj); got != want {
			t.Fatalf("access(%d) = %v, want %v", obj, got, want)
		}
	}
}

// The unified cache's shared LFU history counts tier moves as
// references (DESIGN §2.5's recorded deviation): an object inserted,
// demoted by one insert and then hit once in the client tier has been
// referenced twice but reads 4, and the engine's miss path, which
// records the miss before the insert, counts one missed reference as
// 2.  Decisions and pinned digests rest on these counts; this test
// changes with the fix that re-pins them.
func TestTieredCacheHistoryCountsTierMoves(t *testing.T) {
	tc := newTieredCache(1, 2, 12, nil, "t")
	tc.insert(cache.Entry{Obj: 1, Size: 1, Cost: 1})
	tc.insert(cache.Entry{Obj: 2, Size: 1, Cost: 1}) // 1 demotes
	if got := tc.access(1); got != tierClient {
		t.Fatalf("access(1) = %v, want tierClient", got)
	}
	if got := tc.missLFU.Frequency(1); got != 4 {
		t.Errorf("object 1 after insert, demotion and a client-tier hit counts %d, want 4", got)
	}
	tc.recordMiss(3)
	tc.insert(cache.Entry{Obj: 3, Size: 1, Cost: 1})
	if got := tc.missLFU.Frequency(3); got != 2 {
		t.Errorf("object 3 after one miss counts %d, want 2", got)
	}
}

// genAffinity builds a 2-cluster trace whose clusters align with the
// default 2-proxy mapping.
func genAffinity(affinity float64) (*trace.Trace, error) {
	return prowgen.Generate(prowgen.Config{
		NumRequests:     60_000,
		NumObjects:      2_500,
		NumClients:      200,
		NumClusters:     2,
		ClusterAffinity: affinity,
		Seed:            9,
	})
}
