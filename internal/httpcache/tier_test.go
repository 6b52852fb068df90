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
	"webcache/internal/store"
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
// defense slice included, so a row of the table below pins
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

// pullDigests has px pull every cooperating proxy's digest now.
func pullDigests(px *Proxy) {
	for _, c := range px.coop {
		px.pullDigest(c)
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

// traced gives o a fresh wall-clock tracer, for a proxy pin reads.
func traced(o Options) Options {
	o.Tracer = obs.NewTracer(obs.TracerOptions{Origin: "pinned", Clock: obs.ClockWall})
	return o
}

// tracedDeploy is deploy with every proxy built from traced options.
func tracedDeploy(t *testing.T, numProxies, cachesPerProxy int, proxyCap, cacheCap uint64) *deployment {
	t.Helper()
	return deployWith(t, numProxies, cachesPerProxy,
		func(int) Options { return traced(Options{CapacityBytes: proxyCap}) },
		func(int, int) Options { return Options{CapacityBytes: cacheCap} })
}

// pin reads a proxy built from traced options that nothing has been
// fetched through yet, and serves it unless a server is already given.
func pin(t *testing.T, px *Proxy, base string) pinned {
	t.Helper()
	tr := px.tracer
	if base == "" {
		srv := httptest.NewServer(wiretest.StrictFraming(t, px.Handler()))
		t.Cleanup(srv.Close)
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

	roomyD := tracedDeploy(t, 2, 2, 1<<20, 1<<20) // nothing evicts
	tinyD := tracedDeploy(t, 1, 3, 52, 1<<20)     // proxy holds ~3 objects: destaging
	roomy0 := pin(t, roomyD.proxies[0], roomyD.proxyS[0].URL)
	roomy1 := pin(t, roomyD.proxies[1], roomyD.proxyS[1].URL)
	tiny := pin(t, tinyD.proxies[0], tinyD.proxyS[0].URL)

	// Warm the fixtures.  roomy: /warm cached at proxy 0, which on the
	// way pulled proxy 1's digest, empty; proxy 1 holds no digest of proxy
	// 0.  tiny: twelve objects fetched, so the earliest are long since
	// destaged into the client caches.
	roomyD.fetch(0, "/warm")
	roomy0.px.pulls.Wait()
	for i := 0; i < 12; i++ {
		tinyD.fetch(0, fmt.Sprintf("/obj%02d", i))
	}
	peerKey := func(d *deployment, path string) string {
		return keyOf(d.origin.srv.URL + path).String()
	}

	// One client cache holding a known object, for the /object path.
	cc := NewClientCacheOpts(Options{CapacityBytes: 1 << 20})
	ccSrv := httptest.NewServer(wiretest.StrictFraming(t, cc.Handler()))
	t.Cleanup(ccSrv.Close)
	storedKey := keyOf("http://origin.test/direct").String()
	resp, err := http.Post(ccSrv.URL+"/store?key="+storedKey+"&cost=1", "application/octet-stream",
		strings.NewReader("direct-body"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Diversion, the read side of §4.3: two client caches with room for
	// one ten-byte body each, the owner's taken, so the pass-down lands
	// on the neighbour and /fetch has to find it there.
	divPx, _, _ := ringWith(t, traced(Options{CapacityBytes: 1 << 20}), 15, 15)
	div := pin(t, divPx, "")
	const divertedURL = "http://origin.test/diverted"
	owner := divPx.ring.owner(keyOf(divertedURL))
	resp, err = http.Post(fmt.Sprintf("http://%s/store?key=%s&cost=1", owner.addr, keyOf("filler")),
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
	stalePx, _, _ := ringWith(t, traced(Options{CapacityBytes: 1 << 20}), 1<<20, 1<<20)
	stale := pin(t, stalePx, "")
	plantDir(stalePx, origin.srv.URL+"/stale")

	// A cooperating proxy that answers 500, its breaker already open.
	badPeer := newFarEnd(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "broken", http.StatusInternalServerError)
	}))
	oneStrikeBreakers(t)
	brkPx := newProxy(t, traced(Options{CapacityBytes: 1 << 20, Hardened: true, Peers: []string{badPeer.URL}}))
	brk := pin(t, brkPx, "")
	get(t, from(brk, "/trips-the-breaker"))
	brkPx.pulls.Wait() // its /digest answers 500 too: no digest held
	if st := brkPx.snapshotStats(); st.Defense.BreakerOpens != 1 {
		t.Fatalf("breaker fixture: opens = %d, want 1", st.Defense.BreakerOpens)
	}

	// Two cooperating proxies without client caches, so what one evicts
	// is gone.  drop: proxy 0 pulled proxy 1's digest while proxy 1 held
	// /dropped, which proxy 1 has evicted since, its room of one object
	// going to /filler.  gain: proxy 0 pulled proxy 1's digest while proxy
	// 1 held nothing, and proxy 1 has fetched two objects since.
	dropD := tracedDeploy(t, 2, 0, 30, 0)
	drop := pin(t, dropD.proxies[0], dropD.proxyS[0].URL)
	dropD.fetch(1, "/dropped")
	pullDigests(drop.px)
	dropD.fetch(1, "/filler")
	gainD := tracedDeploy(t, 2, 0, 1<<20, 0)
	gain := pin(t, gainD.proxies[0], gainD.proxyS[0].URL)
	pullDigests(gain.px)
	gainD.fetch(1, "/gained1")
	gainD.fetch(1, "/gained2")

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
	herd := pin(t, newProxy(t, traced(Options{CapacityBytes: 1 << 20})), "")
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

	// The member-to-member rows are asked over a frame, as a hop asks them.
	framed := func(base, pathQuery string) func(t *testing.T, traceID string) (int, string) {
		return func(t *testing.T, traceID string) (int, string) {
			rep := askFramed(t, base, pathQuery, traceID)
			return rep.status, rep.servedBy
		}
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
		// The cooperating proxy's digest says it has not got the object:
		// it is not asked.
		{name: "fetch origin (cold miss)", at: &roomy0,
			url:   roomy0.fetchURL(roomyD.origin.srv.URL + "/cold"),
			tier:  TierOrigin,
			delta: ProxyStats{Requests: 1, OriginFetch: 1, DigestSkips: 1},
			spans: []string{"!proxy.cache", "origin.fetch"}},
		{name: "fetch proxy cache hit", at: &roomy0,
			url:   roomy0.fetchURL(roomyD.origin.srv.URL + "/warm"),
			tier:  TierProxy,
			delta: ProxyStats{Requests: 1, ProxyHits: 1},
			spans: []string{"proxy.cache"}},
		// No digest held yet: the peer is asked, and its digest pulled.
		{name: "fetch cooperating proxy", at: &roomy1,
			url:   roomy1.fetchURL(roomyD.origin.srv.URL + "/warm"),
			tier:  TierRemoteProxy,
			delta: ProxyStats{Requests: 1, RemoteHits: 1, DigestPulls: 1},
			spans: []string{"!proxy.cache", "peer.lookup"}},
		{name: "fetch past a stale digest's yes from origin", at: &drop,
			url:   drop.fetchURL(dropD.origin.srv.URL + "/dropped"),
			tier:  TierOrigin,
			delta: ProxyStats{Requests: 1, OriginFetch: 1, DigestFalsePos: 1},
			spans: []string{"!proxy.cache", "!peer.lookup", "origin.fetch"}},
		{name: "fetch past a stale digest's no from origin", at: &gain,
			url:   gain.fetchURL(gainD.origin.srv.URL + "/gained1"),
			tier:  TierOrigin,
			delta: ProxyStats{Requests: 1, OriginFetch: 1, DigestSkips: 1},
			spans: []string{"!proxy.cache", "origin.fetch"}},
		{name: "fetch cooperating proxy on a refreshed digest", at: &gain,
			run: func(t *testing.T, id string) (int, string) {
				pullDigests(gain.px)
				status, tier, err := tracedGet(gain.fetchURL(gainD.origin.srv.URL+"/gained2"), id)
				if err != nil {
					t.Fatal(err)
				}
				return status, tier
			},
			tier:  TierRemoteProxy,
			delta: ProxyStats{Requests: 1, RemoteHits: 1, DigestPulls: 1},
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
			run:   framed(roomy0.base, "/peer-lookup?key="+peerKey(roomyD, "/warm")),
			tier:  TierPeerProxy,
			spans: []string{"proxy.cache"}},
		{name: "peer-lookup relayed from client cache", at: &tiny,
			run:   framed(tiny.base, "/peer-lookup?key="+peerKey(tinyD, "/obj01")),
			tier:  TierPeerP2P,
			spans: []string{"!proxy.cache", "client.fetch"}},
		{name: "client-cache /object",
			run:  framed(ccSrv.URL, "/object?key="+storedKey),
			tier: TierClientCache},
	}
	for i, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var before ProxyStats
			if tc.at != nil {
				tc.at.px.pulls.Wait()
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
			tc.at.px.pulls.Wait()
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

// A digest covers everything /peer-lookup can serve: the proxy cache
// and the client caches the directory lists.
func TestDigestCoversWhatPeerLookupServes(t *testing.T) {
	origin := newTestOrigin()
	t.Cleanup(origin.srv.Close)
	peerPx := newProxy(t, traced(Options{CapacityBytes: 1 << 20}))
	t.Cleanup(peerPx.Close)
	peer := pin(t, peerPx, "")
	plantDir(peerPx, origin.srv.URL+"/listed")
	inMemory := origin.srv.URL + "/in-memory"
	if _, stored, err := peerPx.store.Put(fold(keyOf(inMemory)), store.Object{HexKey: keyOf(inMemory).String(), Body: []byte("eight-b!"), Cost: 1}); !stored || err != nil {
		t.Fatalf("memory fixture: stored %v, err %v", stored, err)
	}

	px := newProxy(t, Options{CapacityBytes: 1 << 20, Peers: []string{peer.base}})
	pullDigests(px)
	f := coopPeer(px, peer.base).digest.filter.Load()
	if f == nil {
		t.Fatal("no digest pulled")
	}
	for _, path := range []string{"/listed", "/in-memory"} {
		if !f.MayContain(uint64(fold(keyOf(origin.srv.URL + path)))) {
			t.Errorf("the digest does not endorse %s", path)
		}
	}
}
