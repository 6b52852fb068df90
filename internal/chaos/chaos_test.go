package chaos

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"

	"webcache/internal/httpcache"
	"webcache/internal/invariant"
	"webcache/internal/loadgen"
	"webcache/internal/obs"
	"webcache/internal/obs/cluster"
	"webcache/internal/sim"
)

func TestLookup(t *testing.T) {
	for _, s := range Scenarios() {
		got, err := Lookup(s.Name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", s.Name, err)
		}
		if got.Name != s.Name {
			t.Fatalf("Lookup(%q) = %q", s.Name, got.Name)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("Lookup of unknown scenario succeeded")
	}
}

// Each description states its fault's magnitudes from the constants
// the injector uses, so a changed constant cannot leave the manifest
// describing the old value.
func TestDescriptionsStateMagnitudes(t *testing.T) {
	want := map[string][]string{
		"slow-peer":                {percent(slowPeerFraction), slowPeerDelay.String()},
		"flash-churn":              {percent(churnFraction)},
		"churn-during-flash-crowd": {percent(churnFraction)},
		"byzantine":                {percent(byzantineFraction)},
	}
	for _, s := range Scenarios() {
		for _, w := range want[s.Name] {
			if !strings.Contains(s.Description, w) {
				t.Errorf("%s: description %q does not state %q", s.Name, s.Description, w)
			}
		}
	}
}

// TestInjectorAffected pins the deterministic fault placement: the
// first round(fraction*n) daemons of each proxy, at least one whenever
// the fraction is set at all.
func TestInjectorAffected(t *testing.T) {
	tests := []struct {
		caches   int
		fraction float64
		want     []bool // per daemon index
	}{
		{3, 0.34, []bool{true, false, false}}, // round(1.02) = 1
		{3, 0.5, []bool{true, true, false}},   // round(1.5) = 2
		{4, 0.5, []bool{true, true, false, false}},
		{3, 0.01, []bool{true, false, false}}, // floor is 1, never 0
		{3, 0, []bool{false, false, false}},   // fraction unset: fault absent
	}
	for _, tc := range tests {
		in := NewInjector(Scenario{}, tc.caches, nil)
		for i, want := range tc.want {
			if got := in.affected(i, tc.fraction); got != want {
				t.Errorf("caches=%d fraction=%g affected(%d) = %v, want %v",
					tc.caches, tc.fraction, i, got, want)
			}
		}
	}
}

// TestCorruptingWriter pins the corrupt-server byzantine mode: 200
// object bodies are bit-flipped, while non-200 control responses (404
// misses, 507 ifFree rejections) pass through honest.
func TestCorruptingWriter(t *testing.T) {
	// Four daemons, so byzantineFraction (0.5) covers indices 0 and 1.
	in := NewInjector(Scenario{Faults: sim.Faults{Byzantine: true}}, 4, nil)

	// Even cache index: the corrupt-server mode.
	handler := in.WrapCache(0, 0, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("miss") != "" {
			http.Error(w, "no such object", http.StatusNotFound)
			return
		}
		w.Write([]byte{0x00, 0xFF, 0x42})
	}))

	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/object?key=k", nil))
	if got := rec.Body.Bytes(); got[0] != 0xFF || got[1] != 0x00 || got[2] != 0x42^0xFF {
		t.Fatalf("200 body not flipped: % x", got)
	}

	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/object?key=k&miss=1", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("miss status = %d", rec.Code)
	}
	if got := rec.Body.String(); got != "no such object\n" {
		t.Fatalf("404 body was corrupted: %q", got)
	}

	// Odd cache index: the receipt fabricator answers /store itself.
	fab := in.WrapCache(0, 1, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Fatal("fabricating daemon let the store through")
	}))
	rec = httptest.NewRecorder()
	fab.ServeHTTP(rec, httptest.NewRequest("POST", "/store?key=k", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != "1" {
		t.Fatalf("fabricated receipt: %d %q", rec.Code, rec.Body.String())
	}
}

// TestRowCarriesDerivedDeltas: the defenses' p999 cut and hit-ratio
// price are fields of a BENCH_chaos.json row, readable on every
// scenario, not only printed for slow-peer.
func TestRowCarriesDerivedDeltas(t *testing.T) {
	var r Row
	r.AddLive(&LiveReport{HitRatio: 0.5, P999Ms: 500}, &LiveReport{HitRatio: 0.25, P999Ms: 125})
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		P999Cut      float64 `json:"p999_cut"`
		DefensePrice float64 `json:"defense_price"`
	}
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if got.P999Cut != 4 || got.DefensePrice != 0.25 {
		t.Fatalf("row %s: p999_cut %g, defense_price %g; want 4, 0.25", blob, got.P999Cut, got.DefensePrice)
	}
}

// TestRowReplicates: a row over several live pairs carries each pair's
// deltas and their medians, its range is the noise floor a row's median
// is resolved against, and its violations count every pair's runs.
func TestRowReplicates(t *testing.T) {
	var r Row
	for _, p999 := range []float64{100, 400, 200} {
		r.AddLive(&LiveReport{HitRatio: 0.5, P99Ms: 2 * p999, P999Ms: p999, Violations: 1}, &LiveReport{HitRatio: 0.4, P99Ms: 100, P999Ms: 100})
	}
	if len(r.Replicates) != 3 || r.P999Cut != 2 || r.P99Cut != 4 || math.Abs(r.DefensePrice-0.1) > 1e-12 || r.Violations() != 3 {
		t.Fatalf("row %+v: want 3 replicates, p999 cut 2, p99 cut 4, price 0.1 and 3 violations", r)
	}
	floor := r.Spread(func(x Replicate) float64 { return x.P999Cut })
	if floor != (Spread{Median: 2, Min: 1, Max: 4}) {
		t.Fatalf("p999 cut spread %+v, want median 2 in [1, 4]", floor)
	}
	for _, tc := range []struct {
		median   float64
		resolved bool
	}{{0.9, true}, {1, false}, {3.9, false}, {4.1, true}} {
		if got := (Spread{Median: tc.median}).Resolved(floor); got != tc.resolved {
			t.Errorf("median %g against [1, 4]: resolved %v, want %v", tc.median, got, tc.resolved)
		}
	}
}

// smallLive is the live tests' shape: 600 requests of 256 B over 100
// objects from 20 clients at 600 req/s, through 2 proxies x 3 caches.
func smallLive(reg *obs.Registry) Config {
	return Config{Requests: 600, Objects: 100, Clients: 20, ObjectBytes: 256, Rate: 600,
		Proxies: 2, CachesPerProxy: 3, Registry: reg}
}

// TestChurnStormE2E is the mass-churn end-to-end: half the overlay
// flash-disconnects mid-drive with the hardened defenses on, and the
// run must finish with zero request errors (degraded, not failed), a
// clean conservation ledger and an aggregator view that agrees.
func TestChurnStormE2E(t *testing.T) {
	scn, err := Lookup("flash-churn")
	if err != nil {
		t.Fatal(err)
	}
	chk := invariant.New(nil)
	rep, err := RunLive(smallLive(obs.NewRegistry("churn-e2e")), scn, true, chk)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d request errors during flash churn; want graceful degradation", rep.Errors)
	}
	if rep.Violations != 0 {
		t.Fatalf("%d conservation violations during flash churn", rep.Violations)
	}
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Churned != 3 {
		t.Fatalf("churned %d caches, want 3 (half of 2x3)", rep.Churned)
	}
	if rep.HitRatio <= 0 {
		t.Fatal("zero hit ratio: the surviving overlay served nothing")
	}
	// The aggregator's scrape of the mesh agrees with the load generator,
	// and its SLO rollup carries both request classes.
	if err := rep.CheckCluster(); err != nil {
		t.Fatal(err)
	}
	for _, class := range []string{Interactive.Name, Batch.Name} {
		if !slices.ContainsFunc(rep.SLO, func(c cluster.ClassRollup) bool { return c.Name == class && c.Good+c.Bad > 0 }) {
			t.Fatalf("class %q missing from the SLO rollup %+v", class, rep.SLO)
		}
	}
}

// TestChurnDuringFlashCrowdE2E combines the two headline storms: half
// the overlay flash-disconnects at the peak of a flash crowd (Zipf
// 1.1, surged ON/OFF arrivals).  The conservation accountant
// (invariant.ClusterAccountant, attached per proxy via Check) is the
// oracle: a body lost mid-churn that a directory entry still promises,
// or a hot object double-counted when the crowd re-fetches it, is a
// ledger violation.  The hardened proxy must finish with zero request
// errors and a live hit ratio — the crowd's concentration means the
// survivors hold the hot set.
func TestChurnDuringFlashCrowdE2E(t *testing.T) {
	scn, err := Lookup("churn-during-flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	if !scn.Churn || !scn.FlashCrowd {
		t.Fatalf("scenario lost a fault: %+v", scn)
	}
	chk := invariant.New(nil)
	rep, err := RunLive(smallLive(obs.NewRegistry("flash-crowd-e2e")), scn, true, chk)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d request errors during churn-in-flash-crowd; want graceful degradation", rep.Errors)
	}
	if rep.Violations != 0 {
		t.Fatalf("%d conservation violations during churn-in-flash-crowd", rep.Violations)
	}
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Churned != 3 {
		t.Fatalf("churned %d caches, want 3 (half of 2x3)", rep.Churned)
	}
	if rep.HitRatio <= 0 {
		t.Fatal("zero hit ratio: the flash crowd's hot set should survive the churn")
	}
}

// TestChurnDuringFlashCrowdSim replays the combined scenario through
// the simulator with the full invariant subsystem attached: the
// steeper skew must not unsettle the flash-churn handling (shadow
// policies, conservation ledger, directory oracle all clean).
func TestChurnDuringFlashCrowdSim(t *testing.T) {
	scn, err := Lookup("churn-during-flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	chk := invariant.New(nil)
	rep, err := RunSim(Config{Requests: 4000, Objects: 400, Clients: 60, Proxies: 2, CachesPerProxy: 3}, scn, true, chk)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		t.Fatalf("%d conservation violations in the flash-crowd sim", rep.Violations)
	}
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.FlashChurned == 0 {
		t.Fatal("sim churn storm downed nothing")
	}
	if rep.HitRatio <= 0 {
		t.Fatal("zero sim hit ratio")
	}
}

// TestMetricsDocChaos holds the chaos.* namespace in METRICS.md
// against what the injector registers, in both directions.
func TestMetricsDocChaos(t *testing.T) {
	md, err := os.ReadFile("../../METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry("chaos-doc-smoke")
	NewInjector(Scenario{}, 1, reg)

	var names []string
	for _, m := range reg.Snapshot() {
		names = append(names, m.Name)
	}
	if err := obs.CheckMetricsDoc(md, names, "chaos"); err != nil {
		t.Fatal(err)
	}
}

// TestFaultsFireOverFrames: the member-to-member hops travel as frames,
// and each scenario's faults still reach them through the handler
// wrappers.  A hop that went around the wrappers would leave these
// counters at zero and the chaos gates measuring a fault-free run.
func TestFaultsFireOverFrames(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		counters []string
	}{
		{"slow-peer", []string{"chaos.injected.slow_holds"}},
		{"byzantine", []string{"chaos.injected.corrupt_bodies", "chaos.injected.fake_receipts"}},
	} {
		t.Run(tc.scenario, func(t *testing.T) {
			scn, err := Lookup(tc.scenario)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry("frames-" + tc.scenario)
			if _, err := RunLive(smallLive(reg), scn, false, nil); err != nil {
				t.Fatal(err)
			}
			for _, name := range tc.counters {
				if n := reg.Counter(name).Value(); n <= 0 {
					t.Errorf("%s = %d over framed hops, want > 0", name, n)
				}
			}
		})
	}
}

// poison's check that no directory entry was planted means something only
// if the proxy took the registration: a proxy that refuses it (here a
// 400, for an address a hop could not dial) fails the run, and one that
// takes it passes.
func TestPoisonFailsOnRefusal(t *testing.T) {
	px, err := httpcache.NewProxyOpts(httpcache.Options{CapacityBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(px.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(px.Close)
	for _, tc := range []struct {
		addr    string
		refused bool
	}{
		{"no-port", true},
		{"127.0.0.1:1", false},
	} {
		topo := &loadgen.Topology{ProxyURLs: []string{srv.URL}, Proxies: []*httpcache.Proxy{px}, CacheAddrs: [][]string{{tc.addr}}}
		err := poison(topo, []string{"00ff"})
		if refused := err != nil && strings.Contains(err.Error(), "400"); refused != tc.refused {
			t.Errorf("registering %q: poison = %v, want refused %v", tc.addr, err, tc.refused)
		}
	}
}
