package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"webcache/internal/obs"
)

// fakeMember serves a registry exposition the way a daemon does.
func fakeMember(t *testing.T, reg *obs.Registry) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(obs.PrometheusHandler(reg))
	t.Cleanup(srv.Close)
	return srv
}

func memberRegistry(name string, requests, origin, objects float64, latencies []time.Duration) *obs.Registry {
	reg := obs.NewRegistry(name)
	reg.Counter("httpcache.proxy.sweeps").Add(3)
	reg.Gauge("httpcache.proxy.requests").Set(requests)
	reg.Gauge("httpcache.proxy.origin_fetches").Set(origin)
	reg.Gauge("store.objects").Set(objects)
	reg.Gauge("slo.interactive.burn.fast").Set(requests / 100) // distinct per member
	reg.Gauge("slo.interactive.good").Set(requests - origin)
	reg.Gauge("slo.interactive.bad").Set(origin)
	h := reg.Histogram("loadgen.latency")
	for _, d := range latencies {
		h.Observe(d)
	}
	return reg
}

// TestAggregatorGolden scrapes two live members plus one unreachable
// one, asserting the additive merge, the lossless histogram union,
// the cluster hit ratio, the worst-member SLO fold, and the
// staleness flags — then kills a member and checks its last-good data
// keeps contributing, flagged stale.
func TestAggregatorGolden(t *testing.T) {
	regA := memberRegistry("a", 100, 20, 40, []time.Duration{time.Millisecond, 2 * time.Millisecond})
	regB := memberRegistry("b", 250, 30, 0, []time.Duration{10 * time.Millisecond})
	srvA := fakeMember(t, regA)
	srvB := fakeMember(t, regB)

	var events bytes.Buffer
	agg := New([]Member{
		{Name: "a", URL: srvA.URL},
		{Name: "b", URL: srvB.URL},
		{Name: "ghost", URL: "http://127.0.0.1:1"}, // nothing listens here
	}, Options{Events: obs.NewEventLog("agg", &events)})

	snap := agg.ScrapeOnce(context.Background())
	if len(snap.Members) != 3 {
		t.Fatalf("members = %d", len(snap.Members))
	}
	byName := map[string]MemberView{}
	for _, mv := range snap.Members {
		byName[mv.Name] = mv
	}
	if !byName["a"].Up || !byName["b"].Up || byName["ghost"].Up {
		t.Fatalf("up flags: %+v", snap.Members)
	}
	if byName["ghost"].Stale || byName["ghost"].Err == "" || byName["ghost"].AgeSeconds != -1 {
		t.Fatalf("never-scraped member misreported: %+v", byName["ghost"])
	}
	if byName["a"].Objects != 40 || byName["b"].Objects != 0 {
		t.Fatalf("objects: a=%+v b=%+v", byName["a"], byName["b"])
	}

	// Counters and gauges sum: 100 + 250 requests, 50 origin -> hit
	// ratio 1 - 50/350.
	if got := snap.Values["cluster.httpcache_proxy_sweeps"]; got != 6 {
		t.Fatalf("summed counter = %v", got)
	}
	if snap.Requests != 350 || snap.OriginFetches != 50 {
		t.Fatalf("requests=%v origin=%v", snap.Requests, snap.OriginFetches)
	}
	if want := 1 - 50.0/350; math.Abs(snap.HitRatio-want) > 1e-9 {
		t.Fatalf("hit ratio = %v, want %v", snap.HitRatio, want)
	}

	// The histogram union: 3 samples across two members, exact count
	// and max.
	if got := snap.Values["cluster.loadgen_latency.count"]; got != 3 {
		t.Fatalf("merged histogram count = %v", got)
	}
	if got := snap.Values["cluster.loadgen_latency.max"]; math.Abs(got-0.010) > 1e-9 {
		t.Fatalf("merged histogram max = %v", got)
	}

	// SLO fold: burn is the worst member (250/100), ledger sums.
	if len(snap.SLO) != 1 || snap.SLO[0].Name != "interactive" {
		t.Fatalf("slo rollup = %+v", snap.SLO)
	}
	if snap.SLO[0].FastBurn != 2.5 || snap.SLO[0].Bad != 50 {
		t.Fatalf("slo rollup = %+v", snap.SLO[0])
	}
	if got := snap.Values["cluster.slo_interactive_burn_fast"]; got != 2.5 {
		t.Fatalf("merged burn gauge = %v (want worst member, not sum)", got)
	}

	if got := snap.Values["cluster.members_up"]; got != 2 {
		t.Fatalf("members_up = %v", got)
	}

	// Kill B: its last-good samples keep contributing, flagged stale.
	srvB.Close()
	snap = agg.ScrapeOnce(context.Background())
	byName = map[string]MemberView{}
	for _, mv := range snap.Members {
		byName[mv.Name] = mv
	}
	if byName["b"].Up || !byName["b"].Stale || byName["b"].Err == "" {
		t.Fatalf("dead member not stale: %+v", byName["b"])
	}
	if byName["b"].AgeSeconds < 0 {
		t.Fatalf("stale member lost its age: %+v", byName["b"])
	}
	if snap.Requests != 350 {
		t.Fatalf("stale member dropped from merge: requests=%v", snap.Requests)
	}
	if got := snap.Values["cluster.members_stale"]; got != 1 {
		t.Fatalf("members_stale = %v", got)
	}

	// Up/down transitions landed in the event log: a and b up, b down.
	count := func(typ string) int { return strings.Count(events.String(), `"type":"`+typ+`"`) }
	if count("member.up") != 2 || count("member.down") != 1 {
		t.Fatalf("events = %q", events.String())
	}
}

// TestAggregatorStaleDrop ages a dead member's last-good data past
// staleAfter and asserts it stops contributing to the merged totals.
func TestAggregatorStaleDrop(t *testing.T) {
	reg := memberRegistry("a", 100, 10, 0, nil)
	srv := fakeMember(t, reg)
	clock := time.Unix(5_000_000, 0)
	agg := New([]Member{{Name: "a", URL: srv.URL}}, Options{
		Now: func() time.Time { return clock },
	})
	if snap := agg.ScrapeOnce(context.Background()); snap.Requests != 100 {
		t.Fatalf("live scrape: %v", snap.Requests)
	}
	srv.Close()
	clock = clock.Add(5 * time.Second)
	if snap := agg.ScrapeOnce(context.Background()); snap.Requests != 100 {
		t.Fatalf("fresh-stale data dropped early: %v", snap.Requests)
	}
	clock = clock.Add(staleAfter)
	snap := agg.ScrapeOnce(context.Background())
	if snap.Requests != 0 {
		t.Fatalf("ancient data still contributing: %v", snap.Requests)
	}
	if !snap.Members[0].Stale {
		t.Fatalf("member view: %+v", snap.Members[0])
	}
}

// TestAggregatorHandler drives the two HTTP surfaces.
func TestAggregatorHandler(t *testing.T) {
	reg := memberRegistry("a", 10, 1, 0, []time.Duration{time.Millisecond})
	srv := fakeMember(t, reg)
	agg := New([]Member{{Name: "a", URL: srv.URL}}, Options{})
	h := agg.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/cluster/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/cluster/metrics: %d", rec.Code)
	}
	body := rec.Body.String()
	if ss, _, err := obs.ParsePrometheusSamples(strings.NewReader(body)); err != nil || len(ss) == 0 {
		t.Fatalf("cluster exposition invalid: n=%d err=%v\n%s", len(ss), err, body)
	}
	if !strings.Contains(body, "webcache_cluster_hit_ratio") {
		t.Fatalf("missing cluster_hit_ratio:\n%s", body)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/cluster/snapshot", nil))
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot JSON: %v", err)
	}
	if len(snap.Members) != 1 || snap.Requests != 10 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestParseMembers(t *testing.T) {
	ms, err := ParseMembers("a=http://h1:1, h2:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0].Name != "a" || ms[0].URL != "http://h1:1" ||
		ms[1].Name != "member-1" || ms[1].URL != "http://h2:2" {
		t.Fatalf("parsed %+v", ms)
	}
	if _, err := ParseMembers(" , "); err == nil {
		t.Fatal("accepted empty member list")
	}
}
