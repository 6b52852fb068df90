package httpcache

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webcache/internal/wiretest"
)

// fetchVia GETs objURL through the proxy at proxyURL and returns
// (status, serving tier, body).
func fetchVia(t *testing.T, proxyURL, objURL string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/fetch?url=%s", proxyURL, url.QueryEscape(objURL)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get(ServedByHeader), string(body)
}

// A crashed client-cache daemon must not break the proxy: the stale
// directory entry is repaired, the dead node leaves the ring, and the
// request is served from the origin.
func TestClientCacheCrash(t *testing.T) {
	d := deploy(t, 1, 3, 52, 1<<20)
	const n = 10
	for i := 0; i < n; i++ {
		d.fetch(0, fmt.Sprintf("/x%02d", i))
	}
	if d.proxies[0].Stats().DirEntries == 0 {
		t.Fatal("nothing destaged before the crash")
	}
	// Crash every daemon.
	for i, s := range d.cacheS[0] {
		crash(s, d.caches[0][i])
	}
	// Every object must still be fetchable (origin fallback).
	for i := 0; i < n; i++ {
		body, _ := d.fetch(0, fmt.Sprintf("/x%02d", i))
		if body != fmt.Sprintf("content-of:/x%02d", i) {
			t.Fatalf("wrong body %q after crash", body)
		}
	}
	st := d.proxies[0].Stats()
	if st.ClientPool != 0 {
		t.Errorf("dead daemons still in the ring: %d", st.ClientPool)
	}
}

// Concurrent fetch storms must be race-free (run with -race) and
// return correct bodies.
func TestConcurrentFetches(t *testing.T) {
	d := deploy(t, 2, 3, 200, 1<<20)
	var wg sync.WaitGroup
	errs := make(chan string, 256)
	// Raw HTTP inside the goroutines: d.fetch uses t.Fatal, which must
	// not be called off the test goroutine.
	get := func(proxy int, path string) (string, error) {
		u := fmt.Sprintf("%s/fetch?url=%s", d.proxyS[proxy].URL, url.QueryEscape(d.origin.srv.URL+path))
		resp, err := http.Get(u)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return string(body), err
	}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				path := fmt.Sprintf("/c%02d", (w*7+i)%20)
				body, err := get(w%2, path)
				if err != nil {
					errs <- err.Error()
					return
				}
				if body != "content-of:"+path {
					errs <- fmt.Sprintf("body %q for %s", body, path)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// The liveness sweep must evict a daemon that crashed while idle —
// one the passive paths (lanFetch / pass-down failures) never touch.
func TestLivenessSweep(t *testing.T) {
	px := newProxy(t, Options{CapacityBytes: 1 << 20})
	live := newFarEnd(t, wiretest.StrictFraming(t, NewClientCacheOpts(Options{CapacityBytes: 1 << 20}).Handler()))
	dead := newFarEnd(t, wiretest.StrictFraming(t, NewClientCacheOpts(Options{CapacityBytes: 1 << 20}).Handler()))
	px.ring.add(live.addr)
	px.ring.add(dead.addr)
	dead.kill() // crash while idle: no request ever observes it

	removed := px.SweepClientCaches()
	if len(removed) != 1 || removed[0] != dead.addr {
		t.Fatalf("sweep removed %v, want [%s]", removed, dead.addr)
	}
	if px.ring.size() != 1 {
		t.Fatalf("ring size = %d after sweep, want 1", px.ring.size())
	}
	if got := addrsOf(px.ring.snapshot()); len(got) != 1 || got[0] != live.addr {
		t.Fatalf("survivor = %v, want [%s]", got, live.addr)
	}
	if st := px.snapshotStats(); st.SweptCaches != 1 {
		t.Fatalf("swept_caches = %d, want 1", st.SweptCaches)
	}
	// A second sweep finds everyone healthy: idempotent.
	if removed := px.SweepClientCaches(); len(removed) != 0 {
		t.Fatalf("second sweep removed %v", removed)
	}
}

// The sweep's probe is a frame on the proxy's pool, as every hop is:
// the daemon sees GET /healthz arrive as a frame, and the proxy's
// CloseIdleConnections closes the connection it came on.
func TestSweepProbeIsAFrame(t *testing.T) {
	px := newProxy(t, Options{CapacityBytes: 1 << 20})
	asked := make(chan string, 4)
	d := newFarEnd(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case asked <- r.Proto + " " + r.Method + " " + r.URL.Path:
		default:
		}
		w.Write([]byte("ok"))
	}))
	px.ring.add(d.addr)
	if removed := px.SweepClientCaches(); len(removed) != 0 {
		t.Fatalf("the sweep removed %v, a daemon that answers", removed)
	}
	if got, want := <-asked, FrameProtocol+" GET /healthz"; got != want {
		t.Fatalf("the daemon was asked %q, want %q", got, want)
	}
	px.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		d.frames.mu.Lock()
		open := len(d.frames.conns)
		d.frames.mu.Unlock()
		if open == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d frame connections still open after CloseIdleConnections", open)
		}
		time.Sleep(time.Millisecond)
	}
}

// The background sweeper drives the same probe on a ticker and stops
// cleanly (stop is idempotent).
func TestStartSweeper(t *testing.T) {
	px := newProxy(t, Options{CapacityBytes: 1 << 20})
	dead := newFarEnd(t, wiretest.StrictFraming(t, NewClientCacheOpts(Options{CapacityBytes: 1 << 20}).Handler()))
	px.ring.add(dead.addr)
	dead.kill()

	stop := px.StartSweeper(5 * time.Millisecond)
	defer stop()
	deadline := time.Now().Add(5 * time.Second)
	for px.ring.size() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweeper never removed the dead daemon")
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop()
	stop() // idempotent
}

// A thundering herd on one cold URL must cost exactly one origin
// fetch: the flight winner fetches, every concurrent miss coalesces
// onto it (or lands a proxy hit if it arrives after the insert).
func TestCoalescedOriginFetch(t *testing.T) {
	gate := make(chan struct{})
	var originHits atomic.Int64
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		originHits.Add(1)
		<-gate
		fmt.Fprintf(w, "content-of:%s", r.URL.Path)
	}))
	t.Cleanup(origin.Close)

	px := newProxy(t, Options{CapacityBytes: 1 << 20})
	pxSrv := httptest.NewServer(wiretest.StrictFraming(t, px.Handler()))
	t.Cleanup(pxSrv.Close)

	const K = 16
	u := fmt.Sprintf("%s/fetch?url=%s", pxSrv.URL, url.QueryEscape(origin.URL+"/herd"))
	bodies := make(chan string, K)
	errs := make(chan error, K)
	for i := 0; i < K; i++ {
		go func() {
			resp, err := http.Get(u)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				errs <- err
				return
			}
			bodies <- string(b)
		}()
	}
	// Hold the gate until every request has entered the proxy and the
	// winner is parked inside the origin handler, then give the
	// followers a beat to reach the coalescer before releasing.
	deadline := time.Now().Add(5 * time.Second)
	for px.stats.requests.Load() != K || originHits.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("herd never formed: requests=%d originHits=%d",
				px.stats.requests.Load(), originHits.Load())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	close(gate)

	for i := 0; i < K; i++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case b := <-bodies:
			if b != "content-of:/herd" {
				t.Fatalf("body %q", b)
			}
		}
	}
	if n := originHits.Load(); n != 1 {
		t.Fatalf("origin hits = %d, want 1 (herd not coalesced)", n)
	}
	st := px.snapshotStats()
	if st.OriginFetch != 1 {
		t.Fatalf("origin_fetches = %d, want 1", st.OriginFetch)
	}
	if st.CoalescedFetches+st.ProxyHits != K-1 {
		t.Fatalf("coalesced (%d) + proxy hits (%d) = %d, want %d",
			st.CoalescedFetches, st.ProxyHits, st.CoalescedFetches+st.ProxyHits, K-1)
	}
	if st.CoalescedFetches == 0 {
		t.Fatal("no request coalesced onto the in-flight fetch")
	}
}

// A zero-length body is served but never cached, and the store
// receipt reads 0, not stored, instead of silently coercing the size.
func TestEmptyBodyStoreReceipt(t *testing.T) {
	cc := NewClientCacheOpts(Options{CapacityBytes: 1 << 20})
	srv := httptest.NewServer(wiretest.StrictFraming(t, cc.Handler()))
	t.Cleanup(srv.Close)
	key := keyOf("http://origin.test/empty").String()
	resp, err := http.Post(fmt.Sprintf("%s/store?key=%s&cost=1", srv.URL, key),
		"application/octet-stream", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "0" {
		t.Fatalf("receipt = %q, want 0", body)
	}
	if cc.Objects() != 0 {
		t.Fatal("empty object cached")
	}
}

// An origin that declares a longer body than it sends (aborted
// transfer) must surface as a 502 naming the read failure — not as the
// self-contradictory "origin status 200" — and the short body must be
// neither counted as an origin fetch nor cached.
func TestOriginShortBody(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "100")
		w.Write([]byte("only-ten-b")) // net/http closes the connection on the shortfall
	}))
	t.Cleanup(origin.Close)

	px := newProxy(t, Options{CapacityBytes: 1 << 20})
	pxSrv := httptest.NewServer(wiretest.StrictFraming(t, px.Handler()))
	t.Cleanup(pxSrv.Close)

	resp, err := http.Get(fmt.Sprintf("%s/fetch?url=%s", pxSrv.URL, url.QueryEscape(origin.URL+"/short")))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d (%q), want 502", resp.StatusCode, msg)
	}
	if !strings.Contains(string(msg), "reading origin body") || !strings.Contains(string(msg), "EOF") ||
		strings.Contains(string(msg), "origin status 200") {
		t.Fatalf("502 text %q does not name the read failure", msg)
	}
	if st := px.snapshotStats(); st.OriginFetch != 0 {
		t.Fatalf("origin_fetches = %d after a failed fetch, want 0", st.OriginFetch)
	}
	if n := px.Store().Len(); n != 0 {
		t.Fatalf("proxy cached %d objects from an aborted origin body", n)
	}
}

// shortReply answers as the named tier would, with a body that declares
// n bytes and ends after n/2: the frame loop closes the connection on the
// shortfall, as net/http does, which is what a daemon dying mid-reply
// looks like from the other side.
func shortReply(n int, tier string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(ServedByHeader, tier)
		w.Header().Set("Content-Length", strconv.Itoa(n))
		w.Write(bytes.Repeat([]byte("s"), n/2))
	}
}

// The short-body row of the failure matrix, for every hop that carries a
// body back: a client cache and a cooperating proxy that declare 8 KiB
// and close after 4.  The /fetch is served whole by the next
// candidate or the origin, the short body is served to nobody and cached
// nowhere, and the far end is judged as hop judges any connection that
// broke before its deadline: a daemon leaves the ring, a proxy takes a
// failure on its breaker (one failure opens it here), and nobody is
// booked a timeout.
func TestShortBodyPerHop(t *testing.T) {
	const declared = 8 << 10
	origin := newTestOrigin()
	t.Cleanup(origin.srv.Close)
	oneStrikeBreakers(t)

	tests := []struct {
		name  string
		setup func(t *testing.T) (f pinned, objURL string, judged func(t *testing.T))
		tier  string
		body  string // "" = the origin's
		delta ProxyStats
		spans []string
	}{
		{name: "client cache, the neighbour has a copy",
			setup: func(t *testing.T) (pinned, string, func(*testing.T)) {
				shortAddr := newFarEnd(t, shortReply(declared, TierClientCache)).addr
				px, _, addrs := ringWith(t, traced(Options{CapacityBytes: 1 << 20}), 1<<20)
				short := px.ring.add(shortAddr)
				objURL := urlsOwnedBy(t, px, shortAddr, "short", 1)[0]
				resp, err := http.Post(fmt.Sprintf("http://%s/store?key=%s&cost=1", addrs[0], keyOf(objURL)),
					"application/octet-stream", strings.NewReader("the-neighbour's-copy"))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				plantDir(px, objURL)
				return pin(t, px, ""), objURL, func(t *testing.T) {
					if got := addrsOf(px.ring.snapshot()); !slices.Equal(got, addrs) {
						t.Errorf("ring = %v, want only the live daemon %v", got, addrs)
					}
					if got := short.ledger.timeouts.Load(); got != 0 {
						t.Errorf("short daemon booked %d timeout strikes, want 0", got)
					}
				}
			},
			tier:  TierClientCache,
			body:  "the-neighbour's-copy",
			delta: ProxyStats{Requests: 1, ClientHits: 1, DivertedHits: 1},
			spans: []string{"!proxy.cache", "!client.fetch", "client.fetch.divert"}},
		{name: "client cache, the only holder",
			setup: func(t *testing.T) (pinned, string, func(*testing.T)) {
				short := newFarEnd(t, shortReply(declared, TierClientCache))
				px := newProxy(t, traced(Options{CapacityBytes: 1 << 20}))
				px.ring.add(short.addr)
				objURL := origin.srv.URL + "/short-daemon"
				plantDir(px, objURL)
				return pin(t, px, ""), objURL, func(t *testing.T) {
					if n := px.ring.size(); n != 0 {
						t.Errorf("ring holds %d daemons, want the short one removed", n)
					}
				}
			},
			tier:  TierOrigin,
			delta: ProxyStats{Requests: 1, OriginFetch: 1, DirEntries: -1},
			spans: []string{"!proxy.cache", "!client.fetch", "origin.fetch"}},
		{name: "cooperating proxy",
			setup: func(t *testing.T) (pinned, string, func(*testing.T)) {
				short := newFarEnd(t, shortReply(declared, TierPeerProxy))
				px := newProxy(t, traced(Options{CapacityBytes: 1 << 20, Hardened: true, Peers: []string{short.URL}}))
				return pin(t, px, ""), origin.srv.URL + "/short-peer", func(t *testing.T) {
					if px.peerAllowed(coopPeer(px, short.URL)) {
						t.Error("the short peer's breaker is still closed")
					}
				}
			},
			// The lookup pulled the peer's digest on the way, short too.
			tier:  TierOrigin,
			delta: ProxyStats{Requests: 1, OriginFetch: 1, DigestPullFails: 1, Defense: DefenseStats{BreakerOpens: 1}},
			spans: []string{"!proxy.cache", "!peer.lookup", "origin.fetch"}},
	}
	for i, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			f, objURL, judged := tc.setup(t)
			before := f.px.snapshotStats()
			traceID := fmt.Sprintf("short-%d", i)
			resp, body := framedGet(t, f.fetchURL(objURL), TraceHeader, traceID)
			want := tc.body
			if want == "" {
				want = "content-of:" + strings.TrimPrefix(objURL, origin.srv.URL)
			}
			if resp.StatusCode != http.StatusOK || string(body) != want {
				t.Fatalf("status %d, %d body bytes %.40q, want 200 %q", resp.StatusCode, len(body), body, want)
			}
			if tier := resp.Header.Get(ServedByHeader); tier != tc.tier {
				t.Errorf("%s = %q, want %q", ServedByHeader, tier, tc.tier)
			}
			label, spans := finishedTrace(t, f.tr, traceID)
			f.px.pulls.Wait()
			if label != tc.tier || !slices.Equal(spans, tc.spans) {
				t.Errorf("trace closed as %q with spans %v, want %q %v", label, spans, tc.tier, tc.spans)
			}
			if got := statsDelta(before, f.px.snapshotStats()); got != tc.delta {
				t.Errorf("counters moved by %+v, want %+v", got, tc.delta)
			}
			judged(t)
			// Nothing short was cached: what the proxy holds under the key,
			// if anything, is the whole object it served.
			if obj, ok := f.px.Store().Get(fold(keyOf(objURL))); ok && string(obj.Body) != want {
				t.Errorf("proxy cached %d bytes under the key, want the %d it served", len(obj.Body), len(want))
			}
		})
	}
}

// Pass-down is bounded per hop like every other LAN call: a daemon
// whose /store hangs costs the /fetch that evicts toward it one per-hop
// deadline, not the shared client's ten seconds per attempt, and the
// deadline is a strike on its ledger, not its removal — it may only be
// slow.  It is not asked a second time for the same object.
func TestPassDownBoundedPerHop(t *testing.T) {
	origin := newTestOrigin()
	t.Cleanup(origin.srv.Close)
	release := make(chan struct{})
	hung := newFarEnd(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(func() { close(release) })
	addr := hung.addr

	const deadline = hardenedPeerTimeout
	px := newProxy(t, Options{CapacityBytes: 20, Hardened: true}) // one 17-byte body: the second fetch evicts the first
	pxSrv := httptest.NewServer(wiretest.StrictFraming(t, px.Handler()))
	t.Cleanup(pxSrv.Close)
	px.ring.add(addr)

	fetch := func(path string) string {
		t.Helper()
		status, tier, body := fetchVia(t, pxSrv.URL, origin.srv.URL+path)
		if status != http.StatusOK || tier != TierOrigin {
			t.Fatalf("fetch %s: status %d via %q", path, status, tier)
		}
		return body
	}
	fetch("/hang1")
	start := time.Now()
	body := fetch("/hang2")
	elapsed := time.Since(start)
	if body != "content-of:/hang2" {
		t.Fatalf("body %q", body)
	}
	if elapsed < deadline || elapsed > deadline+2*time.Second {
		t.Fatalf("evicting fetch took %v, want one %v hop deadline (plus margin)", elapsed, deadline)
	}
	st := px.snapshotStats()
	if st.StoreCalls != 1 || st.PassDowns != 0 || st.Defense.PeerTimeouts != 1 {
		t.Fatalf("store_calls %d, pass_downs %d, peer_timeouts %d, want 1, 0, 1",
			st.StoreCalls, st.PassDowns, st.Defense.PeerTimeouts)
	}
	if px.ring.size() != 1 {
		t.Fatal("a deadline took the daemon off the ring")
	}
	if got := member(px, addr).ledger.timeouts.Load(); got != 1 {
		t.Fatalf("daemon has %d timeout strikes, want 1", got)
	}
}

// A pass-down's hop has no context deadline, only the connection's: a
// daemon that stalls past it and then answers still costs one per-hop
// deadline, books exactly one peer_timeout and one strike, and keeps its
// place on the ring.  Its late receipt is never read: the next pass-down
// to it books its own object and not the stalled one.
func TestPassDownStallPastDeadline(t *testing.T) {
	const deadline = hardenedPeerTimeout
	var stall atomic.Int64
	stall.Store(int64(4 * deadline))
	slow := newFarEnd(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		time.Sleep(time.Duration(stall.Load()))
		w.Header()[FreeHeader] = []string{"1000"}
		w.Write([]byte("1"))
	}))
	px := newProxy(t, Options{CapacityBytes: 1 << 20, Hardened: true})
	px.ring.add(slow.addr)
	stalled, next := evictedObj("http://origin.test/stalled"), evictedObj("http://origin.test/next")

	start := time.Now()
	px.passDown(stalled)
	if elapsed := time.Since(start); elapsed < deadline || elapsed > deadline+2*time.Second {
		t.Fatalf("the stalled pass-down took %v, want one %v hop deadline (plus margin)", elapsed, deadline)
	}
	st := px.snapshotStats()
	if st.StoreCalls != 1 || st.PassDowns != 0 || st.Defense.PeerTimeouts != 1 {
		t.Fatalf("store_calls %d, pass_downs %d, peer_timeouts %d, want 1, 0, 1",
			st.StoreCalls, st.PassDowns, st.Defense.PeerTimeouts)
	}
	if px.ring.size() != 1 {
		t.Fatal("a deadline took the daemon off the ring")
	}
	if got := member(px, slow.addr).ledger.timeouts.Load(); got != 1 {
		t.Fatalf("daemon has %d timeout strikes, want 1", got)
	}

	stall.Store(0)
	time.Sleep(4 * deadline) // the stalled handler answers into a closed connection
	px.passDown(next)
	st = px.snapshotStats()
	if st.StoreCalls != 2 || st.PassDowns != 1 || st.Defense.PeerTimeouts != 1 {
		t.Fatalf("after the stall: store_calls %d, pass_downs %d, peer_timeouts %d, want 2, 1, 1",
			st.StoreCalls, st.PassDowns, st.Defense.PeerTimeouts)
	}
	if _, ok := listing(px, keyOf("http://origin.test/stalled")); ok {
		t.Fatal("the directory lists the stalled object")
	}
	if _, ok := listing(px, keyOf("http://origin.test/next")); !ok {
		t.Fatal("the directory does not list the object stored after the stalled one")
	}
}

// The digest row of the failure matrix: a cooperating proxy whose
// /digest answers garbage, 5xx, a short body, a refusal or nothing at
// all.  Each drops the digest held, so the peer is asked again as if
// there were no digests, and each is judged as hop judges any proxy:
// what broke the connection or ran out the deadline is a failure for
// its breaker (one opens it here, and the peer is then passed over),
// what answered is not.  The pull leaves no goroutine behind.
func TestDigestPullFailures(t *testing.T) {
	origin := newTestOrigin()
	t.Cleanup(origin.srv.Close)
	oneStrikeBreakers(t)
	faults := []struct {
		name  string
		fault http.HandlerFunc // nil: the peer stops listening
		tier  string
		delta ProxyStats
	}{
		{name: "garbage",
			fault: func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("not a digest")) },
			tier:  TierRemoteProxy,
			delta: ProxyStats{Requests: 1, RemoteHits: 1, DigestPullFails: 1}},
		{name: "5xx",
			fault: func(w http.ResponseWriter, r *http.Request) { http.Error(w, "broken", http.StatusInternalServerError) },
			tier:  TierRemoteProxy,
			delta: ProxyStats{Requests: 1, RemoteHits: 1, DigestPullFails: 1}},
		{name: "short",
			fault: shortReply(8<<10, ""),
			tier:  TierOrigin,
			delta: ProxyStats{Requests: 1, OriginFetch: 1, DigestPullFails: 1,
				Defense: DefenseStats{BreakerSkipped: 1, BreakerOpens: 1}}},
		{name: "refused",
			tier: TierOrigin,
			delta: ProxyStats{Requests: 1, OriginFetch: 1, DigestPullFails: 1,
				Defense: DefenseStats{BreakerSkipped: 1, BreakerOpens: 1}}},
		{name: "hung",
			fault: func(w http.ResponseWriter, r *http.Request) { <-r.Context().Done() },
			tier:  TierOrigin,
			delta: ProxyStats{Requests: 1, OriginFetch: 1, DigestPullFails: 1,
				Defense: DefenseStats{BreakerSkipped: 1, BreakerOpens: 1, PeerTimeouts: 1}}},
	}
	for _, tc := range faults {
		t.Run(tc.name, func(t *testing.T) {
			peerPx := newProxy(t, Options{CapacityBytes: 1 << 20})
			var faulty atomic.Bool
			peerSrv := newFarEnd(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if faulty.Load() && r.URL.Path == "/digest" {
					tc.fault(w, r)
					return
				}
				peerPx.Handler().ServeHTTP(w, r)
			}))
			px := newProxy(t, traced(Options{CapacityBytes: 1 << 20,
				Hardened: true, Peers: []string{peerSrv.URL}}))
			f := pin(t, px, "")
			held := &coopPeer(px, peerSrv.URL).digest

			// A good digest of the peer while it holds nothing; then the
			// peer gains the object, which that digest says it has not got.
			pullDigests(px)
			objURL := origin.srv.URL + "/gained-" + tc.name
			if held.filter.Load() == nil {
				t.Fatal("no digest held after a good pull")
			}
			get(t, pinned{base: peerSrv.URL}.fetchURL(objURL))

			goroutines := runtime.NumGoroutine()
			before := px.snapshotStats()
			if tc.fault == nil {
				peerSrv.kill()
			} else {
				faulty.Store(true)
			}
			pullDigests(px)
			if held.filter.Load() != nil {
				t.Fatal("the digest survived a failed pull")
			}
			if status, tier := get(t, f.fetchURL(objURL)); status != http.StatusOK || tier != tc.tier {
				t.Fatalf("status %d tier %q, want 200 %q", status, tier, tc.tier)
			}
			px.pulls.Wait()
			if got := statsDelta(before, px.snapshotStats()); got != tc.delta {
				t.Errorf("counters moved by %+v, want %+v", got, tc.delta)
			}
			px.CloseIdleConnections()
			http.DefaultClient.CloseIdleConnections()
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(10 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines, %d before the failed pull", runtime.NumGoroutine(), goroutines)
				}
			}
		})
	}
}
