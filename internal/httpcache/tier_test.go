package httpcache

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"webcache/internal/obs"
	"webcache/internal/wiretest"
)

// get issues a GET and returns (status, tier header).
func get(t *testing.T, u string) (int, string) {
	t.Helper()
	status, tier, err := tracedGet(u, "")
	if err != nil {
		t.Fatal(err)
	}
	return status, tier
}

// tracedGet is get carrying a trace id, as the load generator sends
// one; it reports a failure instead of ending the test, so goroutines
// other than the test's may call it.
func tracedGet(u, traceID string) (status int, tier string, err error) {
	req, err := http.NewRequest("GET", u, nil)
	if err != nil {
		return 0, "", err
	}
	if traceID != "" {
		req.Header.Set(TraceHeader, traceID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if _, err := io.ReadAll(resp.Body); err != nil {
		return 0, "", err
	}
	return resp.StatusCode, resp.Header.Get(ServedByHeader), nil
}

// statsDelta is after − before over every counter of ProxyStats, the
// defense and fleet slices included, so a row of the table below pins
// exactly which counters one request moved.
func statsDelta(before, after ProxyStats) ProxyStats {
	var d ProxyStats
	subInts(reflect.ValueOf(&d).Elem(), reflect.ValueOf(before), reflect.ValueOf(after))
	return d
}

func subInts(d, before, after reflect.Value) {
	for i := 0; i < d.NumField(); i++ {
		switch f := d.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(after.Field(i).Int() - before.Field(i).Int())
		case reflect.Struct:
			subInts(f, before.Field(i), after.Field(i))
		}
	}
}

// finishedTrace waits for the handler to close the trace the request
// with this id opened (the reply reaches the client before FinishWall
// runs) and returns its serving label and its spans in the order they
// closed, a wasted one marked "!name".
func finishedTrace(t *testing.T, tr *obs.Tracer, id string) (label string, spans []string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, st := range tr.Snapshots() {
			if st.ID != id || !st.Finished {
				continue
			}
			for _, sp := range st.Spans {
				if sp.Wasted {
					spans = append(spans, "!"+sp.Name)
				} else {
					spans = append(spans, sp.Name)
				}
			}
			return st.Tier, spans
		}
		if time.Now().After(deadline) {
			t.Fatalf("no finished trace %q", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// pinned is a proxy whose counters and spans a row reads.
type pinned struct {
	px   *Proxy
	tr   *obs.Tracer
	base string
}

func (f pinned) fetchURL(objURL string) string {
	return fmt.Sprintf("%s/fetch?url=%s", f.base, url.QueryEscape(objURL))
}

// pin attaches a tracer to a proxy nothing has been fetched through
// yet and serves it unless a server is already given.
func pin(t *testing.T, px *Proxy, base string) pinned {
	t.Helper()
	tr := obs.NewTracer(obs.TracerOptions{Origin: "pinned", Clock: obs.ClockWall})
	px.SetTracer(tr)
	if base == "" {
		srv := httptest.NewServer(wiretest.StrictFraming(t, px.Handler()))
		t.Cleanup(srv.Close)
		px.SetSelf(srv.URL)
		base = srv.URL
	}
	return pinned{px, tr, base}
}

// TestServedByHeaderPerPath audits every object-serving response path
// in the package: each must stamp ServedByHeader with its tier, since
// the live load generator's per-tier accounting keys on it.  It is also
// the pin on the /fetch cascade as a whole: per path, the counters one
// request moves, the probes it makes in order and which of them were
// wasted, and the label its trace is closed under.
func TestServedByHeaderPerPath(t *testing.T) {
	origin := newTestOrigin()
	t.Cleanup(origin.srv.Close)
	from := func(f pinned, path string) string { return f.fetchURL(origin.srv.URL + path) }

	roomyD := deploy(t, 2, 2, 1<<20, 1<<20) // nothing evicts
	tinyD := deploy(t, 1, 3, 52, 1<<20)     // proxy holds ~3 objects: destaging
	roomy0 := pin(t, roomyD.proxies[0], roomyD.proxyS[0].URL)
	roomy1 := pin(t, roomyD.proxies[1], roomyD.proxyS[1].URL)
	tiny := pin(t, tinyD.proxies[0], tinyD.proxyS[0].URL)

	// Warm the fixtures.  roomy: /warm cached at proxy 0; tiny: twelve
	// objects fetched, so the earliest are long since destaged into the
	// client caches.
	roomyD.fetch(0, "/warm")
	for i := 0; i < 12; i++ {
		tinyD.fetch(0, fmt.Sprintf("/obj%02d", i))
	}
	peerKey := func(d *deployment, path string) string {
		return keyOf(d.origin.srv.URL + path).String()
	}

	// One client cache holding a known object, for the /object path.
	cc := NewClientCache(1 << 20)
	ccSrv := httptest.NewServer(wiretest.StrictFraming(t, cc.Handler()))
	t.Cleanup(ccSrv.Close)
	storedKey := keyOf("http://origin.test/direct").String()
	resp, err := http.Post(ccSrv.URL+"/store?key="+storedKey+"&cost=1", "application/octet-stream",
		strings.NewReader("direct-body"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Disk: a memory tier too small for any body, so a fetched object
	// lives in the log only.
	dskPx, err := NewProxyOpts(Options{CapacityBytes: 8, DiskDir: t.TempDir(), DiskCapacityBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dskPx.Close() })
	dsk := pin(t, dskPx, "")
	if _, tier := get(t, from(dsk, "/on-disk")); tier != TierOrigin {
		t.Fatalf("disk fixture warm-up served by %q", tier)
	}
	if !dskPx.Sync() {
		t.Fatal("disk sync failed")
	}

	// Diversion, the read side of §4.3: two client caches with room for
	// one ten-byte body each, the owner's taken, so the pass-down lands
	// on the neighbour and /fetch has to find it there.
	divPx, _, _ := ringOf(t, 15, 15)
	div := pin(t, divPx, "")
	const divertedURL = "http://origin.test/diverted"
	owner, _ := divPx.ring.owner(keyOf(divertedURL))
	resp, err = http.Post(fmt.Sprintf("http://%s/store?key=%s&cost=1", owner, keyOf("filler")),
		"application/octet-stream", strings.NewReader("0123456789"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	divPx.passDown(evictedObj(divertedURL))
	if st := divPx.snapshotStats(); st.Diversions != 1 {
		t.Fatalf("diversion fixture: diversions = %d, want 1", st.Diversions)
	}

	// A directory entry nothing backs: both caches answer 404.
	stalePx, _, _ := ringOf(t, 1<<20, 1<<20)
	stale := pin(t, stalePx, "")
	plantDir(stalePx, origin.srv.URL+"/stale")

	// A cooperating proxy that answers 500, its breaker already open.
	badPeer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "broken", http.StatusInternalServerError)
	}))
	t.Cleanup(badPeer.Close)
	brkPx := NewProxy(1 << 20)
	brkPx.SetDefenses(Defenses{BreakerFailures: 1, BreakerCooldown: time.Minute})
	brkPx.SetPeers([]string{badPeer.URL})
	brk := pin(t, brkPx, "")
	get(t, from(brk, "/trips-the-breaker"))
	if st := brkPx.snapshotStats(); st.Defense.BreakerOpens != 1 {
		t.Fatalf("breaker fixture: opens = %d, want 1", st.Defense.BreakerOpens)
	}

	// A fleet of three; the pinned member owns nothing of /fleet.
	rig := newFleetRig(t, 3, 1, 0, nil)
	fleetObj := rig.origin.srv.URL + "/fleet"
	frontIdx := otherIndex(3, rig.ownerIndex(t, fleetObj))
	front := pin(t, rig.proxies[frontIdx], rig.urls[frontIdx])

	// An origin that holds its first reply until released, so a second
	// request finds the first one's fetch in flight.
	gate := make(chan struct{})
	var gated atomic.Int64
	slowOrigin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gated.Add(1)
		<-gate
		fmt.Fprintf(w, "content-of:%s", r.URL.Path)
	}))
	t.Cleanup(slowOrigin.Close)
	herd := pin(t, NewProxy(1<<20), "")
	coalesced := func(t *testing.T, id string) (int, string) {
		u := herd.fetchURL(slowOrigin.URL + "/herd")
		type result struct {
			status int
			tier   string
			err    error
		}
		winner, waiter := make(chan result, 1), make(chan result, 1)
		ask := func(id string, out chan<- result) {
			status, tier, err := tracedGet(u, id)
			out <- result{status, tier, err}
		}
		requests := herd.px.stats.requests.Load()
		waitFor := func(what string, cond func() bool) {
			t.Helper()
			for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("herd never formed: %s", what)
				}
			}
		}
		go ask(id+"-winner", winner)
		waitFor("winner at the origin", func() bool { return gated.Load() == 1 })
		go ask(id, waiter)
		waitFor("waiter in the proxy", func() bool { return herd.px.stats.requests.Load() == requests+2 })
		time.Sleep(100 * time.Millisecond) // a beat to reach the coalescer
		close(gate)
		w, r := <-winner, <-waiter
		if w.err != nil || r.err != nil {
			t.Fatal(w.err, r.err)
		}
		if w.status != http.StatusOK || w.tier != TierOrigin {
			t.Fatalf("flight winner: status %d tier %q", w.status, w.tier)
		}
		return r.status, r.tier
	}

	// The origin answering 500 behind the 502 row.
	badOrigin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "broken", http.StatusInternalServerError)
	}))
	t.Cleanup(badOrigin.Close)

	tests := []struct {
		name string
		at   *pinned // nil: the reply comes from a client-cache daemon
		url  string
		run  func(t *testing.T, traceID string) (status int, tier string) // nil: GET url
		tier string                                                       // "" with label "error": a 502
		// What the request moved at the pinned proxy, the probes it made
		// ("!" = wasted) and the label its trace closed under when that is
		// not the tier.
		delta ProxyStats
		spans []string
		label string
	}{
		{name: "fetch origin (cold miss)", at: &roomy0,
			url:   roomy0.fetchURL(roomyD.origin.srv.URL + "/cold"),
			tier:  TierOrigin,
			delta: ProxyStats{Requests: 1, OriginFetch: 1},
			spans: []string{"!proxy.cache", "!peer.lookup", "origin.fetch"}},
		{name: "fetch proxy cache hit", at: &roomy0,
			url:   roomy0.fetchURL(roomyD.origin.srv.URL + "/warm"),
			tier:  TierProxy,
			delta: ProxyStats{Requests: 1, ProxyHits: 1},
			spans: []string{"proxy.cache"}},
		{name: "fetch proxy disk hit", at: &dsk,
			url:   from(dsk, "/on-disk"),
			tier:  TierProxyDisk,
			delta: ProxyStats{Requests: 1, DiskHits: 1},
			spans: []string{"!proxy.cache", "proxy.disk"}},
		{name: "fetch cooperating proxy", at: &roomy1,
			url:   roomy1.fetchURL(roomyD.origin.srv.URL + "/warm"),
			tier:  TierRemoteProxy,
			delta: ProxyStats{Requests: 1, RemoteHits: 1},
			spans: []string{"!proxy.cache", "peer.lookup"}},
		{name: "fetch destaged object from client cache", at: &tiny,
			url:   tiny.fetchURL(tinyD.origin.srv.URL + "/obj00"),
			tier:  TierClientCache,
			delta: ProxyStats{Requests: 1, ClientHits: 1},
			spans: []string{"!proxy.cache", "client.fetch"}},
		{name: "fetch diverted object from the owner's neighbour", at: &div,
			url:   div.fetchURL(divertedURL),
			tier:  TierClientCache,
			delta: ProxyStats{Requests: 1, ClientHits: 1, DivertedHits: 1},
			spans: []string{"!proxy.cache", "!client.fetch", "client.fetch.divert"}},
		{name: "fetch stale directory entry, repaired, from origin", at: &stale,
			url:   from(stale, "/stale"),
			tier:  TierOrigin,
			delta: ProxyStats{Requests: 1, OriginFetch: 1, DirEntries: -1},
			spans: []string{"!proxy.cache", "!client.fetch", "!client.fetch.divert", "origin.fetch"}},
		{name: "fetch past a breaker-open peer from origin", at: &brk,
			url:   from(brk, "/skips-the-peer"),
			tier:  TierOrigin,
			delta: ProxyStats{Requests: 1, OriginFetch: 1, Defense: DefenseStats{BreakerSkipped: 1}},
			spans: []string{"!proxy.cache", "origin.fetch"}},
		{name: "fetch fleet owner's origin fill", at: &front,
			url:   front.fetchURL(fleetObj),
			tier:  TierOrigin,
			delta: ProxyStats{Requests: 1, Fleet: FleetStats{Routed: 1, RoutedOrigin: 1}},
			spans: []string{"!proxy.cache", "fleet.route"}},
		{name: "fetch fleet owner's cache hit", at: &front,
			url:   front.fetchURL(fleetObj),
			tier:  TierRemoteProxy,
			delta: ProxyStats{Requests: 1, Fleet: FleetStats{Routed: 1, RoutedHits: 1}},
			spans: []string{"!proxy.cache", "fleet.route"}},
		{name: "fetch coalesced onto another request's origin fetch", at: &herd,
			run:   coalesced,
			tier:  TierOrigin,
			delta: ProxyStats{Requests: 2, OriginFetch: 1, CoalescedFetches: 1}, // winner and waiter
			spans: []string{"!proxy.cache", "origin.fetch"}},
		{name: "fetch origin failure", at: &div,
			url:   div.fetchURL(badOrigin.URL + "/broken"),
			label: "error",
			delta: ProxyStats{Requests: 1},
			spans: []string{"!proxy.cache", "!origin.fetch"}},
		{name: "peer-lookup served from proxy cache", at: &roomy0,
			url:   fmt.Sprintf("%s/peer-lookup?key=%s", roomy0.base, peerKey(roomyD, "/warm")),
			tier:  TierPeerProxy,
			spans: []string{"proxy.cache"}},
		{name: "peer-lookup push-served from client cache", at: &tiny,
			url:   fmt.Sprintf("%s/peer-lookup?key=%s", tiny.base, peerKey(tinyD, "/obj01")),
			tier:  TierPeerP2P,
			delta: ProxyStats{PushesIn: 1},
			spans: []string{"!proxy.cache", "peer.push"}},
		{name: "client-cache /object",
			url:  ccSrv.URL + "/object?key=" + storedKey,
			tier: TierClientCache},
	}
	for i, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var before ProxyStats
			if tc.at != nil {
				before = tc.at.px.snapshotStats()
			}
			traceID := fmt.Sprintf("row-%d", i)
			if tc.run == nil {
				tc.run = func(t *testing.T, id string) (int, string) {
					status, tier, err := tracedGet(tc.url, id)
					if err != nil {
						t.Fatal(err)
					}
					return status, tier
				}
			}
			status, tier := tc.run(t, traceID)
			wantStatus, wantLabel := http.StatusOK, tc.tier
			if tc.label != "" {
				wantLabel = tc.label
			}
			if tc.tier == "" {
				wantStatus = http.StatusBadGateway
			}
			if status != wantStatus {
				t.Fatalf("status %d, want %d", status, wantStatus)
			}
			if tier != tc.tier {
				t.Fatalf("%s = %q, want %q", ServedByHeader, tier, tc.tier)
			}
			if tc.at == nil {
				return
			}
			label, spans := finishedTrace(t, tc.at.tr, traceID)
			if label != wantLabel {
				t.Errorf("trace closed as %q, want %q", label, wantLabel)
			}
			if !slices.Equal(spans, tc.spans) {
				t.Errorf("spans %v, want %v", spans, tc.spans)
			}
			if got := statsDelta(before, tc.at.px.snapshotStats()); got != tc.delta {
				t.Errorf("counters moved by %+v, want %+v", got, tc.delta)
			}
		})
	}
}
