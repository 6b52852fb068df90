package httpcache

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A crashed client-cache daemon must not break the proxy: the stale
// directory entry is repaired, the dead node leaves the ring, and the
// request is served from the origin.
func TestClientCacheCrash(t *testing.T) {
	d := deploy(t, 1, 3, 52, 1<<20)
	const n = 10
	for i := 0; i < n; i++ {
		d.fetch(0, fmt.Sprintf("/x%02d", i))
	}
	if d.proxyStats(0).DirEntries == 0 {
		t.Fatal("nothing destaged before the crash")
	}
	// Crash every daemon.
	for _, s := range d.cacheS[0] {
		s.Close()
	}
	// Every object must still be fetchable (origin fallback).
	for i := 0; i < n; i++ {
		body, _ := d.fetch(0, fmt.Sprintf("/x%02d", i))
		if body != fmt.Sprintf("content-of:/x%02d", i) {
			t.Fatalf("wrong body %q after crash", body)
		}
	}
	st := d.proxyStats(0)
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
	px := NewProxy(1 << 20)
	live := NewClientCache(1 << 20)
	liveSrv := httptest.NewServer(live.Handler())
	t.Cleanup(liveSrv.Close)
	deadSrv := httptest.NewServer(NewClientCache(1 << 20).Handler())
	liveAddr := strings.TrimPrefix(liveSrv.URL, "http://")
	deadAddr := strings.TrimPrefix(deadSrv.URL, "http://")
	px.ring.add(liveAddr)
	px.ring.add(deadAddr)
	deadSrv.Close() // crash while idle: no request ever observes it

	removed := px.SweepClientCaches()
	if len(removed) != 1 || removed[0] != deadAddr {
		t.Fatalf("sweep removed %v, want [%s]", removed, deadAddr)
	}
	if px.ring.size() != 1 {
		t.Fatalf("ring size = %d after sweep, want 1", px.ring.size())
	}
	if got := px.ring.addresses(); len(got) != 1 || got[0] != liveAddr {
		t.Fatalf("survivor = %v, want [%s]", got, liveAddr)
	}
	if st := px.snapshotStats(); st.SweptCaches != 1 {
		t.Fatalf("swept_caches = %d, want 1", st.SweptCaches)
	}
	// A second sweep finds everyone healthy: idempotent.
	if removed := px.SweepClientCaches(); len(removed) != 0 {
		t.Fatalf("second sweep removed %v", removed)
	}
}

// The background sweeper drives the same probe on a ticker and stops
// cleanly (stop is idempotent).
func TestStartSweeper(t *testing.T) {
	px := NewProxy(1 << 20)
	deadSrv := httptest.NewServer(NewClientCache(1 << 20).Handler())
	deadAddr := strings.TrimPrefix(deadSrv.URL, "http://")
	px.ring.add(deadAddr)
	deadSrv.Close()

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

	px := NewProxy(1 << 20)
	pxSrv := httptest.NewServer(px.Handler())
	t.Cleanup(pxSrv.Close)
	px.SetSelf(pxSrv.URL)

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
// receipt says so explicitly instead of silently coercing the size.
func TestEmptyBodyStoreReceipt(t *testing.T) {
	cc := NewClientCache(1 << 20)
	srv := httptest.NewServer(cc.Handler())
	t.Cleanup(srv.Close)
	key := keyOf("http://origin.test/empty").String()
	resp, err := http.Post(fmt.Sprintf("%s/store?key=%s&cost=1", srv.URL, key),
		"application/octet-stream", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rec StoreReceipt
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.Stored || rec.Reason != "empty-object" {
		t.Fatalf("receipt = %+v, want refused with reason empty-object", rec)
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

	px := NewProxy(1 << 20)
	pxSrv := httptest.NewServer(px.Handler())
	t.Cleanup(pxSrv.Close)
	px.SetSelf(pxSrv.URL)

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

// Pass-down is bounded per hop like every other LAN call: a daemon
// whose /store hangs costs the /fetch that evicts toward it one per-hop
// deadline, not the shared client's ten seconds per attempt, and the
// deadline is a strike on its ledger, not its removal — it may only be
// slow.  It is not asked a second time for the same object.
func TestPassDownBoundedPerHop(t *testing.T) {
	origin := newTestOrigin()
	t.Cleanup(origin.srv.Close)
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(hung.Close)
	t.Cleanup(func() { close(release) })
	addr := strings.TrimPrefix(hung.URL, "http://")

	const deadline = 150 * time.Millisecond
	px := NewProxy(20) // one 17-byte body: the second fetch evicts the first
	px.SetDefenses(Defenses{PeerTimeout: deadline})
	pxSrv := httptest.NewServer(px.Handler())
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
	if got := px.contribFor(addr).timeouts.Load(); got != 1 {
		t.Fatalf("daemon has %d timeout strikes, want 1", got)
	}
}
