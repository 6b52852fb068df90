package httpcache

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"webcache/internal/wiretest"
)

// fakeDaemon is a scriptable stand-in for a client-cache daemon: it
// serves a fixed body on /object, optionally stalling first.
type fakeDaemon struct {
	srv   *httptest.Server
	addr  string
	delay atomic.Int64 // nanoseconds of stall before answering /object
	body  []byte
}

func newFakeDaemon(t *testing.T, body []byte) *fakeDaemon {
	t.Helper()
	d := &fakeDaemon{body: body}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /object", func(w http.ResponseWriter, r *http.Request) {
		if s := time.Duration(d.delay.Load()); s > 0 {
			select {
			case <-time.After(s):
			case <-r.Context().Done():
				return
			}
		}
		w.Write(d.body)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	})
	d.srv = httptest.NewServer(mux)
	t.Cleanup(d.srv.Close)
	d.addr = strings.TrimPrefix(d.srv.URL, "http://")
	return d
}

// defenseProxy wires a served proxy whose ring holds the given fake
// daemons, with the object's directory entry pre-planted.
func defenseProxy(t *testing.T, d Defenses, daemons ...*fakeDaemon) (*Proxy, *httptest.Server) {
	t.Helper()
	px := NewProxy(1 << 20)
	px.SetDefenses(d)
	srv := httptest.NewServer(wiretest.StrictFraming(t, px.Handler()))
	t.Cleanup(srv.Close)
	for _, fd := range daemons {
		px.ring.add(fd.addr)
	}
	return px, srv
}

func plantDir(px *Proxy, objURL string) {
	px.mu.Lock()
	px.dir.Add(fold(keyOf(objURL)))
	px.mu.Unlock()
}

// TestSlowPeerDeadline is the slow-peer regression test: a client
// cache that stalls far past the per-call deadline must cost one
// PeerTimeout before the request moves on — not the shared 10s client
// timeout the pre-defense code paid.  It moves on to the owner's ring
// neighbour, which serves the object if a diversion left it there (the
// federation keeps one copy of an object, so that is the only other
// place it can be), and to the origin if not.
func TestSlowPeerDeadline(t *testing.T) {
	const deadline = 50 * time.Millisecond
	for _, tc := range []struct {
		name      string
		neighbour bool
		tier      string
		diverted  int
	}{
		{"no copy anywhere: origin", false, TierOrigin, 0},
		{"diverted copy next door: client cache", true, TierClientCache, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			origin := newTestOrigin()
			t.Cleanup(origin.srv.Close)
			objURL := origin.srv.URL + "/slow"
			daemons := []*fakeDaemon{newFakeDaemon(t, []byte("content-of:/slow"))}
			if tc.neighbour {
				daemons = append(daemons, newFakeDaemon(t, []byte("content-of:/slow")))
			}
			px, srv := defenseProxy(t, Defenses{PeerTimeout: deadline}, daemons...)
			plantDir(px, objURL)
			owner, _ := px.ring.owner(keyOf(objURL))
			slow := daemons[0]
			if owner != slow.addr {
				slow = daemons[1]
			}
			slow.delay.Store(int64(500 * time.Millisecond))

			start := time.Now()
			status, tier := get(t, fmt.Sprintf("%s/fetch?url=%s", srv.URL, url.QueryEscape(objURL)))
			elapsed := time.Since(start)
			if status != http.StatusOK || tier != tc.tier {
				t.Fatalf("slow-peer fetch: status %d tier %q, want 200 %q", status, tier, tc.tier)
			}
			// Budget: one bounded LAN probe (~50ms) plus the serving round
			// trip, with slack for CI.  The old behaviour was the full
			// 500ms stall.
			if elapsed < deadline || elapsed > 300*time.Millisecond {
				t.Fatalf("slow-peer fetch took %v, want one %v hop deadline", elapsed, deadline)
			}
			st := px.snapshotStats()
			if st.Defense.PeerTimeouts != 1 || st.DivertedHits != tc.diverted {
				t.Fatalf("peer_timeouts %d, diverted_hits %d, want 1, %d",
					st.Defense.PeerTimeouts, st.DivertedHits, tc.diverted)
			}
			// A timeout is a strike, not a death: the daemon stays in the
			// ring (only connection-level failures evict) and its ledger
			// carries the strike for the sweeper to judge.
			if !slices.Contains(px.ring.addresses(), slow.addr) {
				t.Fatal("timed-out daemon was evicted from the ring; timeouts must only strike")
			}
			if got := px.contribFor(slow.addr).timeouts.Load(); got != 1 {
				t.Fatalf("daemon has %d timeout strikes, want 1", got)
			}
		})
	}
}

// A daemon that hangs on the relay's /object is a slow peer like any
// other: the peer-lookup that asked it pays one per-hop deadline,
// strikes its ledger, and asks the next ring candidate, which here holds
// the object for the proxy to relay.
func TestRelayHopDeadline(t *testing.T) {
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(hung.Close)
	t.Cleanup(func() { close(release) })
	hungAddr := strings.TrimPrefix(hung.URL, "http://")
	cc := NewClientCache(1 << 20)
	ccSrv := httptest.NewServer(wiretest.StrictFraming(t, cc.Handler()))
	t.Cleanup(ccSrv.Close)

	const deadline = 100 * time.Millisecond
	px, srv := defenseProxy(t, Defenses{PeerTimeout: deadline})
	px.ring.add(hungAddr)
	px.ring.add(strings.TrimPrefix(ccSrv.URL, "http://"))
	objURL := urlsOwnedBy(t, px, hungAddr, "relay", 1)[0]
	key := keyOf(objURL).String()
	resp, err := http.Post(ccSrv.URL+"/store?key="+key+"&cost=1", "application/octet-stream",
		strings.NewReader("relayed-body"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	plantDir(px, objURL)

	start := time.Now()
	status, tier := get(t, srv.URL+"/peer-lookup?key="+key)
	elapsed := time.Since(start)
	if status != http.StatusOK || tier != TierPeerP2P {
		t.Fatalf("peer-lookup: status %d tier %q, want 200 %q from the next candidate", status, tier, TierPeerP2P)
	}
	if elapsed < deadline || elapsed > deadline+2*time.Second {
		t.Fatalf("peer-lookup took %v, want one %v hop deadline (plus margin)", elapsed, deadline)
	}
	// A relay books nothing at the proxy that relays: the asking proxy
	// counts the serve.
	if got := px.snapshotStats(); got != (ProxyStats{DirEntries: 1, Defense: DefenseStats{PeerTimeouts: 1}}) {
		t.Fatalf("counters %+v, want one peer timeout and the entry kept", got)
	}
	if px.ring.size() != 2 {
		t.Fatal("a deadline took the daemon off the ring")
	}
	if got := px.contribFor(hungAddr).timeouts.Load(); got != 1 {
		t.Fatalf("hung daemon has %d timeout strikes, want 1", got)
	}
}

// TestRegisterBodyCap pins the /register size cap: an attacker
// streaming an unbounded recovered-key list gets 413 before the proxy
// buffers it; plain registrations (no body, junk body) still succeed.
func TestRegisterBodyCap(t *testing.T) {
	_, srv := defenseProxy(t, Defenses{})

	huge := `{"recovered":["` + strings.Repeat("a", registerBodyMax+1024) + `"]}`
	resp, err := http.Post(srv.URL+"/register?addr=10.0.0.1:999", "application/json",
		strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize register: status %d, want 413", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/register?addr=10.0.0.2:999", "text/plain",
		strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain register: status %d, want 200", resp.StatusCode)
	}
}

// TestBreakerDegradesToOrigin pins the per-peer circuit breaker and
// the breaker-open serving path's X-Served-By attribution: a peer
// failing at the transport level is consulted BreakerFailures times,
// then skipped — every request still answered 200 from origin.
func TestBreakerDegradesToOrigin(t *testing.T) {
	origin := newTestOrigin()
	t.Cleanup(origin.srv.Close)
	badPeer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "broken peer", http.StatusInternalServerError)
	}))
	t.Cleanup(badPeer.Close)

	px, srv := defenseProxy(t, Defenses{
		BreakerFailures: 2,
		BreakerCooldown: time.Minute, // stays open for the whole test
	})
	px.SetPeers([]string{badPeer.URL})

	// Distinct cold objects so every request walks the peer step.
	for i := 0; i < 6; i++ {
		u := fmt.Sprintf("%s/fetch?url=%s", srv.URL,
			url.QueryEscape(fmt.Sprintf("%s/breaker%d", origin.srv.URL, i)))
		status, tier := get(t, u)
		if status != http.StatusOK || tier != TierOrigin {
			t.Fatalf("request %d: status %d tier %q, want 200 %q (degrade to origin, never 5xx)",
				i, status, tier, TierOrigin)
		}
	}
	st := px.snapshotStats()
	if st.Defense.BreakerOpens != 1 {
		t.Fatalf("breaker opens = %d, want 1", st.Defense.BreakerOpens)
	}
	// 6 requests, 2 admitted before the breaker opened: 4 skips.
	if st.Defense.BreakerSkipped != 4 {
		t.Fatalf("breaker skipped = %d, want 4", st.Defense.BreakerSkipped)
	}
}

// TestContributionSweep pins the strike ledger end-to-end: a daemon
// whose timeouts exhaust the strike budget is deregistered by the next
// sweep even though it still answers probes.
func TestContributionSweep(t *testing.T) {
	origin := newTestOrigin()
	t.Cleanup(origin.srv.Close)
	daemon := newFakeDaemon(t, []byte("x"))
	daemon.delay.Store(int64(200 * time.Millisecond))

	px, srv := defenseProxy(t, Defenses{
		PeerTimeout:  20 * time.Millisecond,
		SweepStrikes: 3,
	}, daemon)

	for i := 0; i < 3; i++ {
		objURL := fmt.Sprintf("%s/strike%d", origin.srv.URL, i)
		plantDir(px, objURL)
		if status, _ := get(t, fmt.Sprintf("%s/fetch?url=%s", srv.URL, url.QueryEscape(objURL))); status != http.StatusOK {
			t.Fatalf("fetch %d: status %d", i, status)
		}
	}
	if c := px.contribFor(daemon.addr); c.strikes() < 3 {
		t.Fatalf("strikes = %d, want >= 3", c.strikes())
	}
	removed := px.SweepClientCaches()
	if len(removed) != 1 || removed[0] != daemon.addr {
		t.Fatalf("sweep removed %v, want [%s]", removed, daemon.addr)
	}
	if st := px.snapshotStats(); st.Defense.ContribSwept != 1 {
		t.Fatalf("contrib swept = %d, want 1", st.Defense.ContribSwept)
	}
}

// TestAdaptivePeerTimeout exercises the PeerTimeout auto-tuner: the
// configured deadline holds until the LAN latency histogram warms up,
// then the effective deadline tracks 4x the observed p99, clamped to
// [minPeerTimeout, configured PeerTimeout].
func TestAdaptivePeerTimeout(t *testing.T) {
	configured := 2 * time.Second
	px := NewProxy(1 << 20)
	px.SetDefenses(Defenses{PeerTimeout: configured, AdaptivePeerTimeout: true})

	// Cold histogram: fall back to the configured ceiling.
	if got := px.peerTimeout(); got != configured {
		t.Fatalf("cold peerTimeout = %v, want configured %v", got, configured)
	}

	// Warm up with sub-millisecond hops: 4x p99 would undercut the
	// floor, so the tuner clamps up to minPeerTimeout.
	for i := 0; i < 2*adaptiveTimeoutSamples; i++ {
		px.lanLat.Observe(200 * time.Microsecond)
	}
	if got := px.peerTimeout(); got != minPeerTimeout {
		t.Fatalf("fast-LAN peerTimeout = %v, want floor %v", got, minPeerTimeout)
	}

	// A realistic LAN p99 lands between the clamps: 4x p99.
	px2 := NewProxy(1 << 20)
	px2.SetDefenses(Defenses{PeerTimeout: configured, AdaptivePeerTimeout: true})
	for i := 0; i < 2*adaptiveTimeoutSamples; i++ {
		px2.lanLat.Observe(20 * time.Millisecond)
	}
	got := px2.peerTimeout()
	if got <= minPeerTimeout || got >= configured {
		t.Fatalf("mid-range peerTimeout = %v, want strictly inside (%v, %v)", got, minPeerTimeout, configured)
	}
	if want := 4 * px2.lanLat.Quantile(0.99); got != want {
		t.Fatalf("mid-range peerTimeout = %v, want 4x p99 = %v", got, want)
	}

	// Pathological observations clamp down to the configured ceiling.
	px3 := NewProxy(1 << 20)
	px3.SetDefenses(Defenses{PeerTimeout: configured, AdaptivePeerTimeout: true})
	for i := 0; i < 2*adaptiveTimeoutSamples; i++ {
		px3.lanLat.Observe(10 * time.Second)
	}
	if got := px3.peerTimeout(); got != configured {
		t.Fatalf("slow-LAN peerTimeout = %v, want ceiling %v", got, configured)
	}

	// With the flag off the histogram is ignored entirely.
	px4 := NewProxy(1 << 20)
	px4.SetDefenses(Defenses{PeerTimeout: configured})
	for i := 0; i < 2*adaptiveTimeoutSamples; i++ {
		px4.lanLat.Observe(200 * time.Microsecond)
	}
	if got := px4.peerTimeout(); got != configured {
		t.Fatalf("flag-off peerTimeout = %v, want configured %v", got, configured)
	}
}

// The relay is the client-cache rung, repairs and defenses included.  A
// lookup of a directory entry nothing backs any more is a 404 that
// unlists it, so the next digest the peer publishes stops endorsing the
// object; a daemon that corrupts what it serves takes a digest-mismatch
// strike and the next candidate is asked, and when there is none the
// lookup is a 404.
func TestRelayRepairs(t *testing.T) {
	t.Run("stale entry", func(t *testing.T) {
		origin := newTestOrigin()
		t.Cleanup(origin.srv.Close)
		peerPx, _, _ := ringOf(t, 1<<20, 1<<20)
		peerSrv := httptest.NewServer(wiretest.StrictFraming(t, peerPx.Handler()))
		t.Cleanup(peerSrv.Close)
		objURL := origin.srv.URL + "/stale"
		plantDir(peerPx, objURL)
		px := NewProxy(1 << 20)
		px.SetPeers([]string{peerSrv.URL})
		f := pin(t, px, "")
		pullDigests(px)
		endorsed := func() bool {
			return px.coop.Load().digests[peerSrv.URL].filter.Load().MayContain(uint64(fold(keyOf(objURL))))
		}
		if !endorsed() {
			t.Fatal("the peer's digest does not endorse its directory entry")
		}

		before, peerBefore := px.snapshotStats(), peerPx.snapshotStats()
		if status, tier := get(t, f.fetchURL(objURL)); status != http.StatusOK || tier != TierOrigin {
			t.Fatalf("status %d tier %q, want 200 %q", status, tier, TierOrigin)
		}
		px.pulls.Wait()
		if got, want := statsDelta(before, px.snapshotStats()), (ProxyStats{Requests: 1, OriginFetch: 1, DigestFalsePos: 1}); got != want {
			t.Errorf("asking proxy moved by %+v, want %+v", got, want)
		}
		if got, want := statsDelta(peerBefore, peerPx.snapshotStats()), (ProxyStats{DirEntries: -1}); got != want {
			t.Errorf("peer moved by %+v, want %+v", got, want)
		}
		pullDigests(px)
		if endorsed() {
			t.Error("the next digest still endorses the repaired entry")
		}
	})

	good := []byte("the-good-body")
	for _, tc := range []struct {
		name         string
		copyNextDoor bool
		status       int
		tier         string
		delta        ProxyStats
	}{
		{"corrupting owner, a good copy next door", true, http.StatusOK, TierPeerP2P,
			ProxyStats{Defense: DefenseStats{DigestChecks: 2, DigestFailures: 1}}},
		{"corrupting owner, no other copy", false, http.StatusNotFound, "",
			ProxyStats{DirEntries: -1, Defense: DefenseStats{DigestChecks: 1, DigestFailures: 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := newFakeDaemon(t, []byte("the-bad!-body"))
			peerPx, _, addrs := ringOf(t, 1<<20)
			peerPx.SetDefenses(Defenses{VerifyEvery: 1})
			peerPx.ring.add(bad.addr)
			objURL := urlsOwnedBy(t, peerPx, bad.addr, "corrupt", 1)[0]
			key := keyOf(objURL)
			// What a pass-down to the owner records.
			peerPx.recordDigest(fold(key), good)
			plantDir(peerPx, objURL)
			if tc.copyNextDoor {
				resp, err := http.Post(fmt.Sprintf("http://%s/store?key=%s&cost=1", addrs[0], key),
					"application/octet-stream", bytes.NewReader(good))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
			}
			peerSrv := httptest.NewServer(wiretest.StrictFraming(t, peerPx.Handler()))
			t.Cleanup(peerSrv.Close)

			before := peerPx.snapshotStats()
			resp, body := framedGet(t, peerSrv.URL+"/peer-lookup?key="+key.String())
			if resp.StatusCode != tc.status || resp.Header.Get(ServedByHeader) != tc.tier {
				t.Fatalf("status %d tier %q, want %d %q", resp.StatusCode, resp.Header.Get(ServedByHeader), tc.status, tc.tier)
			}
			if tc.status == http.StatusOK && !bytes.Equal(body, good) {
				t.Fatalf("relayed %q, want %q", body, good)
			}
			if got := statsDelta(before, peerPx.snapshotStats()); got != tc.delta {
				t.Errorf("peer moved by %+v, want %+v", got, tc.delta)
			}
			if got := peerPx.contribFor(bad.addr).digestFails.Load(); got != 1 {
				t.Errorf("the corrupting daemon has %d digest strikes, want 1", got)
			}
		})
	}
}
