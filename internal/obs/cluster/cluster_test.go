package cluster

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
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

func memberRegistry(name string, requests, origin, objects float64) *obs.Registry {
	reg := obs.NewRegistry(name)
	reg.Counter("httpcache.proxy.sweeps").Add(3)
	reg.Gauge("httpcache.proxy.requests").Set(requests)
	reg.Gauge("httpcache.proxy.proxy_hits").Set(requests - origin)
	reg.Gauge("httpcache.proxy.origin_replies").Set(origin)
	reg.Gauge("httpcache.proxy.breaker_opens").Set(objects / 10)
	reg.Gauge("store.objects").Set(objects)
	reg.Gauge("slo.interactive.burn.fast").Set(requests / 100) // distinct per member
	reg.Gauge("slo.interactive.good").Set(requests - origin)
	reg.Gauge("slo.interactive.bad").Set(origin)
	reg.Histogram("loadgen.latency").Observe(time.Millisecond)
	return reg
}

func byName(snap *Snapshot) map[string]MemberView {
	out := map[string]MemberView{}
	for _, mv := range snap.Members {
		out[mv.Name] = mv
	}
	return out
}

// TestAggregatorGolden scrapes two live members plus one unreachable
// one, asserting the summed serving stats, the cluster and per-member
// hit ratios, the worst-member SLO fold, and the staleness flags, then
// kills a member and checks its last-good data keeps contributing,
// flagged stale.
func TestAggregatorGolden(t *testing.T) {
	srvA := fakeMember(t, memberRegistry("a", 100, 20, 40))
	srvB := fakeMember(t, memberRegistry("b", 250, 30, 0))
	agg := New([]Member{
		{Name: "a", URL: srvA.URL},
		{Name: "b", URL: srvB.URL},
		{Name: "ghost", URL: "http://127.0.0.1:1"}, // nothing listens here
	})

	snap := agg.ScrapeOnce(context.Background())
	if len(snap.Members) != 3 {
		t.Fatalf("members = %d", len(snap.Members))
	}
	m := byName(snap)
	if !m["a"].Up || !m["b"].Up || m["ghost"].Up {
		t.Fatalf("up flags: %+v", snap.Members)
	}
	if m["ghost"].Stale || m["ghost"].Err == "" || m["ghost"].Requests != 0 {
		t.Fatalf("never-scraped member misreported: %+v", m["ghost"])
	}
	if m["a"].Objects != 40 || m["b"].Objects != 0 || m["a"].BreakerOpens != 4 {
		t.Fatalf("objects/breakers: a=%+v b=%+v", m["a"], m["b"])
	}
	if m["a"].Requests != 100 || math.Abs(m["a"].HitRatio-0.8) > 1e-9 {
		t.Fatalf("member a: %+v", m["a"])
	}

	// Requests and origin replies sum: 100 + 250 requests, 50 origin ->
	// hit ratio 1 - 50/350.
	if snap.Requests != 350 || snap.OriginFetches != 50 {
		t.Fatalf("requests=%v origin=%v", snap.Requests, snap.OriginFetches)
	}
	if want := 1 - 50.0/350; math.Abs(snap.HitRatio-want) > 1e-9 {
		t.Fatalf("hit ratio = %v, want %v", snap.HitRatio, want)
	}

	// SLO fold: burn is the worst member (250/100), ledger sums.
	if len(snap.SLO) != 1 || snap.SLO[0].Name != "interactive" {
		t.Fatalf("slo rollup = %+v", snap.SLO)
	}
	if snap.SLO[0].FastBurn != 2.5 || snap.SLO[0].Bad != 50 || snap.SLO[0].Good != 300 {
		t.Fatalf("slo rollup = %+v", snap.SLO[0])
	}

	// Kill B: its last-good gauges keep contributing, flagged stale.
	srvB.Close()
	snap = agg.ScrapeOnce(context.Background())
	m = byName(snap)
	if m["b"].Up || !m["b"].Stale || m["b"].Err == "" || m["b"].Requests != 250 {
		t.Fatalf("dead member not stale: %+v", m["b"])
	}
	if snap.Requests != 350 || snap.SLO[0].FastBurn != 2.5 {
		t.Fatalf("stale member dropped: requests=%v slo=%+v", snap.Requests, snap.SLO)
	}
}

// The hit ratio is the cache tiers' share of the served replies: a
// request the proxy counted but never served (a 502 after an origin
// refusal) is neither a hit nor a miss, and a member that served
// nothing reads 0.
func TestAggregatorHitRatio(t *testing.T) {
	for _, tc := range []struct {
		name                                string
		requests, proxy, client, remote, og float64
		want                                float64
	}{
		{"every tier", 10, 3, 2, 1, 4, 0.6},
		{"one failed request, no serves", 1, 0, 0, 0, 0, 0},
		{"a failure beside serves", 5, 1, 1, 0, 2, 0.5},
		{"all from origin", 4, 0, 0, 0, 4, 0},
	} {
		reg := obs.NewRegistry("m")
		reg.Gauge("httpcache.proxy.requests").Set(tc.requests)
		reg.Gauge("httpcache.proxy.proxy_hits").Set(tc.proxy)
		reg.Gauge("httpcache.proxy.client_hits").Set(tc.client)
		reg.Gauge("httpcache.proxy.remote_hits").Set(tc.remote)
		reg.Gauge("httpcache.proxy.origin_replies").Set(tc.og)
		snap := New([]Member{{Name: "m", URL: fakeMember(t, reg).URL}}).ScrapeOnce(context.Background())
		if got := snap.HitRatio; math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: cluster hit ratio %v, want %v", tc.name, got, tc.want)
		}
		if got := snap.Members[0].HitRatio; math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: member hit ratio %v, want %v", tc.name, got, tc.want)
		}
		if snap.Requests != tc.requests {
			t.Errorf("%s: requests %v, want %v", tc.name, snap.Requests, tc.requests)
		}
	}
}

// TestAggregatorStaleDrop ages a dead member's last-good data past
// staleAfter and asserts it stops contributing to the cluster totals.
func TestAggregatorStaleDrop(t *testing.T) {
	srv := fakeMember(t, memberRegistry("a", 100, 10, 0))
	clock := time.Unix(5_000_000, 0)
	agg := New([]Member{{Name: "a", URL: srv.URL}})
	agg.now = func() time.Time { return clock }
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
	if snap.Requests != 0 || snap.SLO != nil {
		t.Fatalf("ancient data still contributing: requests=%v slo=%+v", snap.Requests, snap.SLO)
	}
	if !snap.Members[0].Stale {
		t.Fatalf("member view: %+v", snap.Members[0])
	}
}

// switchable serves reg's exposition, a 500, or a malformed body,
// as mode says.
func switchable(t *testing.T, reg *obs.Registry, mode *atomic.Value) *httptest.Server {
	t.Helper()
	good := obs.PrometheusHandler(reg)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch mode.Load() {
		case "500":
			http.Error(w, "boom", http.StatusInternalServerError)
		case "garbage":
			w.Write([]byte("this is not an exposition\n"))
		default:
			good.ServeHTTP(w, r)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestAggregatorBadExposition: a member that answers 500, or answers
// 200 with a body that does not parse, is shown down with its error,
// and its last good gauges stay in the totals, marked stale.
func TestAggregatorBadExposition(t *testing.T) {
	var mode atomic.Value
	mode.Store("ok")
	srv := switchable(t, memberRegistry("a", 100, 25, 7), &mode)
	agg := New([]Member{{Name: "a", URL: srv.URL}})
	if snap := agg.ScrapeOnce(context.Background()); !snap.Members[0].Up || snap.Requests != 100 {
		t.Fatalf("first scrape: %+v", snap)
	}
	for _, tc := range []struct{ mode, errHas string }{
		{"500", "500"},
		{"garbage", "parse /metrics"},
	} {
		mode.Store(tc.mode)
		snap := agg.ScrapeOnce(context.Background())
		mv := snap.Members[0]
		if mv.Up || !mv.Stale || !strings.Contains(mv.Err, tc.errHas) {
			t.Fatalf("%s: member view %+v, want down, stale, error naming %q", tc.mode, mv, tc.errHas)
		}
		if mv.Requests != 100 || mv.Objects != 7 || snap.Requests != 100 || snap.OriginFetches != 25 {
			t.Fatalf("%s: last good data lost: member %+v, cluster %v/%v", tc.mode, mv, snap.Requests, snap.OriginFetches)
		}
	}
}

// TestAggregatorMemberRecovers: a stale member that answers again is
// up, no longer stale, has no error, and contributes its new gauges.
func TestAggregatorMemberRecovers(t *testing.T) {
	var mode atomic.Value
	mode.Store("ok")
	reg := memberRegistry("a", 100, 25, 7)
	srvA := switchable(t, reg, &mode)
	srvB := fakeMember(t, memberRegistry("b", 50, 5, 1))
	agg := New([]Member{{Name: "a", URL: srvA.URL}, {Name: "b", URL: srvB.URL}})

	agg.ScrapeOnce(context.Background())
	mode.Store("500")
	if snap := agg.ScrapeOnce(context.Background()); !snap.Members[0].Stale {
		t.Fatalf("not stale: %+v", snap.Members[0])
	}
	reg.Gauge("httpcache.proxy.requests").Set(300)
	mode.Store("ok")
	snap := agg.ScrapeOnce(context.Background())
	mv := snap.Members[0]
	if !mv.Up || mv.Stale || mv.Err != "" || mv.Requests != 300 {
		t.Fatalf("recovered member: %+v", mv)
	}
	if snap.Requests != 350 || snap.OriginFetches != 30 {
		t.Fatalf("cluster after recovery: %v requests, %v origin", snap.Requests, snap.OriginFetches)
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
	for _, bad := range []string{
		" , ",                         // no members
		"a=http://h1:1,a=http://h2:2", // one name, two members
		"h1:1,member-0=h2:2",          // a given name equal to a default one
	} {
		if ms, err := ParseMembers(bad); err == nil {
			t.Fatalf("accepted %q as %+v", bad, ms)
		}
	}
}
