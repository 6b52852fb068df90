package httpcache

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"webcache/internal/pastry"
	"webcache/internal/wiretest"
)

// fakeDaemon is a scriptable stand-in for a client-cache daemon: it
// serves a fixed body on /object, optionally stalling first.
type fakeDaemon struct {
	srv   *farEnd
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
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
	d.srv = newFarEnd(t, mux)
	d.addr = d.srv.addr
	return d
}

// defenseProxy wires a served proxy whose ring holds the given fake
// daemons, with the object's directory entry pre-planted.
func defenseProxy(t *testing.T, hardened bool, daemons ...*fakeDaemon) (*Proxy, *httptest.Server) {
	t.Helper()
	px := newProxy(t, Options{CapacityBytes: 1 << 20, Hardened: hardened})
	srv := httptest.NewServer(wiretest.StrictFraming(t, px.Handler()))
	t.Cleanup(srv.Close)
	for _, fd := range daemons {
		px.ring.add(fd.addr)
	}
	return px, srv
}

// plantDir lists objURL's object in px's directory with no digest.
func plantDir(px *Proxy, objURL string) { plantPassDown(px, objURL, nil) }

// plantPassDown lists objURL's object as a pass-down of body to a
// client cache does: with body's digest on a hardened proxy.
func plantPassDown(px *Proxy, objURL string, body []byte) {
	var sum uint64
	if px.hardened && body != nil {
		sum = bodyDigest(body)
	}
	px.mu.Lock()
	px.list(fold(keyOf(objURL)), sum)
	px.mu.Unlock()
}

// listing reads id's directory entry: its digest, and whether it is
// listed.
func listing(px *Proxy, id pastry.ID) (uint64, bool) {
	px.mu.Lock()
	defer px.mu.Unlock()
	sum, ok := px.dir[fold(id)]
	return sum, ok
}

// TestSlowPeerDeadline is the slow-peer regression test: a client
// cache that stalls far past the per-call deadline must cost one
// hop deadline before the request moves on — not the shared 10s client
// timeout the pre-defense code paid.  It moves on to the owner's ring
// neighbour, which serves the object if a diversion left it there (the
// federation keeps one copy of an object, so that is the only other
// place it can be), and to the origin if not.
func TestSlowPeerDeadline(t *testing.T) {
	const deadline = hardenedPeerTimeout
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
			px, srv := defenseProxy(t, true, daemons...)
			plantDir(px, objURL)
			owner := px.ring.owner(keyOf(objURL))
			slow := daemons[0]
			if owner.addr != slow.addr {
				slow = daemons[1]
			}
			slow.delay.Store(int64(500 * time.Millisecond))

			start := time.Now()
			status, tier := get(t, fmt.Sprintf("%s/fetch?url=%s", srv.URL, url.QueryEscape(objURL)))
			elapsed := time.Since(start)
			if status != http.StatusOK || tier != tc.tier {
				t.Fatalf("slow-peer fetch: status %d tier %q, want 200 %q", status, tier, tc.tier)
			}
			// Budget: one hop deadline (hardenedPeerTimeout) plus the
			// serving round trip, with slack for CI.  The old behaviour
			// was the full 500ms stall.
			if elapsed < deadline || elapsed > deadline+225*time.Millisecond {
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
			if !slices.Contains(addrsOf(px.ring.snapshot()), slow.addr) {
				t.Fatal("timed-out daemon was evicted from the ring; timeouts must only strike")
			}
			if got := member(px, slow.addr).ledger.timeouts.Load(); got != 1 {
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
	hung := newFarEnd(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(func() { close(release) })
	hungAddr := hung.addr
	cc := NewClientCacheOpts(Options{CapacityBytes: 1 << 20})
	ccSrv := httptest.NewServer(wiretest.StrictFraming(t, cc.Handler()))
	t.Cleanup(ccSrv.Close)

	const deadline = hardenedPeerTimeout
	px, srv := defenseProxy(t, true)
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
	if got := member(px, hungAddr).ledger.timeouts.Load(); got != 1 {
		t.Fatalf("hung daemon has %d timeout strikes, want 1", got)
	}
}

// A registration names an address and nothing else: a body listing
// keys, as the poison chaos scenario sends one, plants no directory
// entry, and the daemon is registered all the same.
func TestRegisterListsNothing(t *testing.T) {
	px, srv := defenseProxy(t, false)
	listed := keyOf("http://origin.test/listed").String()
	resp, err := http.Post(srv.URL+"/register?addr=10.0.0.3:999", "application/json",
		strings.NewReader(`{"recovered":["`+listed+`"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || member(px, "10.0.0.3:999") == nil {
		t.Fatalf("register with a key list: status %d, on the ring %v; want 200 and registered",
			resp.StatusCode, member(px, "10.0.0.3:999") != nil)
	}
	if got := px.snapshotStats().DirEntries; got != 0 {
		t.Fatalf("directory_entries = %d after a registration listing a key, want 0", got)
	}
}

// /register refuses an addr that is not host:port with 400, as
// NewProxyOpts refuses such a peer: every hop to it would fail.
func TestRegisterAddrIsHostPort(t *testing.T) {
	px, srv := defenseProxy(t, false)
	for _, tc := range []struct {
		addr string
		want int
	}{
		{"10.0.0.1:999", http.StatusOK},
		{"[fe80::1%eth0]:9001", http.StatusOK},
		{"", http.StatusBadRequest},
		{"https://cache.test:9001", http.StatusBadRequest},
		{"cache.test", http.StatusBadRequest},
		{":9001", http.StatusBadRequest},
		{"cache.test:", http.StatusBadRequest},
	} {
		resp, err := http.Post(srv.URL+"/register?addr="+url.QueryEscape(tc.addr), "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("register %q: status %d, want %d", tc.addr, resp.StatusCode, tc.want)
		}
	}
	if n := px.ring.size(); n != 2 {
		t.Fatalf("ring holds %d members, want the 2 host:port registrations", n)
	}
}

// Register query-escapes addr, so a scoped IPv6 literal (its '%') and
// a '+' reach the proxy's ring exactly as the daemon named them.
func TestRegisterEscapesAddr(t *testing.T) {
	px, srv := defenseProxy(t, false)
	addrs := []string{"[fe80::1%eth0]:9001", "a+b:9001"}
	for _, addr := range addrs {
		if err := Register(srv.URL, addr); err != nil {
			t.Fatalf("Register(%q): %v", addr, err)
		}
	}
	got := addrsOf(px.ring.snapshot())
	slices.Sort(got)
	if !slices.Equal(got, addrs) {
		t.Fatalf("ring addresses = %q, want %q", got, addrs)
	}
}

// FuzzRegister sends /register an arbitrary addr and raw body.
// Whatever arrives, the proxy does not panic, answers 200 with the
// daemon's 32-hex-digit ring id for a host:port addr and 400 for any
// other, and its directory never grows: a registration lists nothing.
func FuzzRegister(f *testing.F) {
	listed := keyOf("http://origin.test/fuzz").String()
	f.Add("10.0.0.1:999", []byte(nil))
	f.Add("cache.test:9001", []byte("not json"))
	f.Add("10.0.0.2:999", []byte(`{"recovered":["zz","`+listed+`","`+strings.ToUpper(listed)+`",""]}`))
	f.Add("", []byte(`{"recovered":["`+listed+`"]}`))
	f.Add("https://cache.test:9001", []byte(`{"recovered":["`+listed+`"]}`))
	px := newProxy(f, Options{CapacityBytes: 1 << 20})
	h := px.Handler()
	f.Fuzz(func(t *testing.T, addr string, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/register?addr="+url.QueryEscape(addr), bytes.NewReader(body)))
		if n := px.snapshotStats().DirEntries; n != 0 {
			t.Errorf("addr %q: the directory holds %d entries after a registration", addr, n)
		}
		host, port, err := net.SplitHostPort(addr)
		hostPort := err == nil && host != "" && port != ""
		switch {
		case rec.Code == http.StatusOK && hostPort:
			if _, ok := hexID(rec.Body.Bytes()); !ok {
				t.Errorf("addr %q: 200 without a 32-hex ring id: %q", addr, rec.Body.String())
			}
		case rec.Code == http.StatusBadRequest && !hostPort:
		default:
			t.Errorf("addr %q (host:port %v): status %d", addr, hostPort, rec.Code)
		}
	})
}

// TestBreakerDegradesToOrigin pins the per-peer circuit breaker and
// the breaker-open serving path's X-Served-By attribution: a peer
// failing at the transport level is consulted breakerFailures times,
// then skipped — every request still answered 200 from origin.
func TestBreakerDegradesToOrigin(t *testing.T) {
	origin := newTestOrigin()
	t.Cleanup(origin.srv.Close)
	badPeer := newFarEnd(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "broken peer", http.StatusInternalServerError)
	}))

	holdBreakersOpen(t)
	px := newProxy(t, Options{CapacityBytes: 1 << 20, Hardened: true, Peers: []string{badPeer.URL}})
	srv := httptest.NewServer(wiretest.StrictFraming(t, px.Handler()))
	t.Cleanup(srv.Close)

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
	// 6 requests, breakerFailures admitted before the breaker opened.
	if want := 6 - breakerFailures; st.Defense.BreakerSkipped != want {
		t.Fatalf("breaker skipped = %d, want %d", st.Defense.BreakerSkipped, want)
	}
}

// TestContributionSweep pins the strike ledger end-to-end: a daemon
// whose timeouts exhaust the strike budget is deregistered by the next
// sweep even though it still answers probes.
func TestContributionSweep(t *testing.T) {
	origin := newTestOrigin()
	t.Cleanup(origin.srv.Close)
	daemon := newFakeDaemon(t, []byte("x"))
	daemon.delay.Store(int64(3 * hardenedPeerTimeout))

	px, srv := defenseProxy(t, true, daemon)

	for i := 0; i < sweepStrikes; i++ {
		objURL := fmt.Sprintf("%s/strike%d", origin.srv.URL, i)
		plantDir(px, objURL)
		if status, _ := get(t, fmt.Sprintf("%s/fetch?url=%s", srv.URL, url.QueryEscape(objURL))); status != http.StatusOK {
			t.Fatalf("fetch %d: status %d", i, status)
		}
	}
	if c := member(px, daemon.addr).ledger; c.strikes() < sweepStrikes {
		t.Fatalf("strikes = %d, want >= %d", c.strikes(), sweepStrikes)
	}
	removed := px.SweepClientCaches()
	if len(removed) != 1 || removed[0] != daemon.addr {
		t.Fatalf("sweep removed %v, want [%s]", removed, daemon.addr)
	}
	if st := px.snapshotStats(); st.Defense.ContribSwept != 1 {
		t.Fatalf("contrib swept = %d, want 1", st.Defense.ContribSwept)
	}
}

// A client cache's headroom figure lasts only as long as the
// registration it belongs to; its ledger lasts as long as the daemon
// stays on the ring.  A daemon one strike short of condemnation and
// known to be full is dropped by a connection-failed hop, or by a failed
// sweep probe, and registers again: it comes back with an empty ledger,
// so one more strike does not condemn it.  One that registers again
// while still on the ring keeps its strikes, so one more does (the
// launder chaos scenario).  Either way its headroom is unknown.  A
// failed hop drops the record it was made with and no other: a daemon
// that registered again meanwhile keeps its new record.
func TestLedgerLastsOneRegistration(t *testing.T) {
	for _, tc := range []struct {
		name string
		// drop runs while the daemon answers nothing whole, given the
		// record it registered with; dropped says it leaves the ring.
		drop    func(px *Proxy, m *peer)
		dropped bool
	}{
		{"dropped by a connection-failed hop", func(px *Proxy, m *peer) {
			px.lanFetch(context.Background(), m, keyOf("http://origin.test/ledger"), "")
		}, true},
		{"dropped by a failed sweep probe", func(px *Proxy, _ *peer) { px.SweepClientCaches() }, true},
		{"registered again", func(*Proxy, *peer) {}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			px, d := ledgerRing(t)
			first := d.register(t)
			first.ledger.timeouts.Add(sweepStrikes - 1)
			first.free.Store(0)
			d.down.Store(true)
			tc.drop(px, first)
			d.down.Store(false)
			if dropped := member(px, d.addr) == nil; dropped != tc.dropped {
				t.Fatalf("daemon dropped: %v, want %v", dropped, tc.dropped)
			}
			again := d.register(t)
			wantStrikes := int64(0)
			if !tc.dropped {
				wantStrikes = sweepStrikes - 1
			}
			if s := again.ledger.strikes(); s != wantStrikes || again.ledger.serves.Load() != 0 || again.free.Load() != freeUnknown {
				t.Fatalf("registered again with %d strikes, %d serves, headroom %d; want %d strikes, no serves and unknown headroom",
					s, again.ledger.serves.Load(), again.free.Load(), wantStrikes)
			}
			again.ledger.timeouts.Add(1)
			var want []string
			if !tc.dropped {
				want = []string{d.addr}
			}
			if removed := px.SweepClientCaches(); !slices.Equal(removed, want) {
				t.Fatalf("the sweep removed %v, want %v", removed, want)
			}
		})
	}
	t.Run("a failed hop on a replaced record", func(t *testing.T) {
		px, d := ledgerRing(t)
		old := d.register(t)
		again := d.register(t)
		d.down.Store(true)
		if _, ok := px.lanFetch(context.Background(), old, keyOf("http://origin.test/ledger"), ""); ok {
			t.Fatal("a daemon answering short served")
		}
		d.down.Store(false)
		if m := member(px, d.addr); m != again || px.ring.size() != 1 {
			t.Fatalf("ring holds %v (%d members), want the new registration alone", m, px.ring.size())
		}
	})
}

// ledgerDaemon is a client-cache stand-in that registers with a proxy
// and, while down, answers frames short: a connection-level failure to
// a hop and to a sweep probe.
type ledgerDaemon struct {
	*farEnd
	proxyURL string
	px       *Proxy
	down     atomic.Bool
}

// ledgerRing serves a proxy and starts one ledgerDaemon, not yet
// registered.
func ledgerRing(t *testing.T) (*Proxy, *ledgerDaemon) {
	px := newProxy(t, Options{CapacityBytes: 1 << 20})
	srv := httptest.NewServer(px.Handler())
	t.Cleanup(srv.Close)
	d := &ledgerDaemon{proxyURL: srv.URL, px: px}
	short := shortReply(64, TierClientCache)
	d.farEnd = newFarEnd(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if d.down.Load() {
			short(w, r)
			return
		}
		http.NotFound(w, r)
	}))
	return px, d
}

// register registers the daemon through POST /register and returns the
// proxy's record of it.
func (d *ledgerDaemon) register(t *testing.T) *peer {
	t.Helper()
	if err := Register(d.proxyURL, d.addr); err != nil {
		t.Fatal(err)
	}
	m := member(d.px, d.addr)
	if m == nil {
		t.Fatal("registered, but not on the ring")
	}
	return m
}

// TestAdaptivePeerTimeout exercises the hardened per-hop deadline's
// auto-tuner: hardenedPeerTimeout holds until the LAN latency
// histogram warms up, then the effective deadline tracks 4x the
// observed p99, clamped to [minPeerTimeout, hardenedPeerTimeout].  An
// unhardened proxy ignores the histogram.
func TestAdaptivePeerTimeout(t *testing.T) {
	for _, tc := range []struct {
		name     string
		hardened bool
		observed time.Duration // each of 2*adaptiveTimeoutSamples LAN fetches; 0 = none
		want     time.Duration // 0 = 4x the observed p99, strictly inside the clamps
	}{
		{"cold histogram: the ceiling", true, 0, hardenedPeerTimeout},
		{"fast LAN: the floor", true, 200 * time.Microsecond, minPeerTimeout},
		{"realistic LAN: 4x p99", true, 5 * time.Millisecond, 0},
		{"slow LAN: the ceiling", true, 10 * time.Second, hardenedPeerTimeout},
		{"unhardened: the default", false, 200 * time.Microsecond, defaultPeerTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			px := newProxy(t, Options{CapacityBytes: 1 << 20, Hardened: tc.hardened})
			for i := 0; tc.observed > 0 && i < 2*adaptiveTimeoutSamples; i++ {
				px.lanLat.Observe(tc.observed)
			}
			got, want := px.peerTimeout(), tc.want
			if want == 0 {
				want = 4 * px.lanLat.Quantile(0.99)
				if want <= minPeerTimeout || want >= hardenedPeerTimeout {
					t.Fatalf("4x p99 = %v is not strictly inside (%v, %v)", want, minPeerTimeout, hardenedPeerTimeout)
				}
			}
			if got != want {
				t.Fatalf("peerTimeout = %v, want %v", got, want)
			}
		})
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
		px := newProxy(t, traced(Options{CapacityBytes: 1 << 20, Peers: []string{peerSrv.URL}}))
		f := pin(t, px, "")
		pullDigests(px)
		endorsed := func() bool {
			return coopPeer(px, peerSrv.URL).digest.filter.Load().MayContain(uint64(fold(keyOf(objURL))))
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
			verifyEveryServe(t)
			peerPx, _, addrs := ringWith(t, Options{CapacityBytes: 1 << 20, Hardened: true}, 1<<20)
			peerPx.ring.add(bad.addr)
			objURL := urlsOwnedBy(t, peerPx, bad.addr, "corrupt", 1)[0]
			key := keyOf(objURL)
			// What a pass-down to the owner records.
			plantPassDown(peerPx, objURL, good)
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
			if got := member(peerPx, bad.addr).ledger.digestFails.Load(); got != 1 {
				t.Errorf("the corrupting daemon has %d digest strikes, want 1", got)
			}
		})
	}
}

// holdBreakersOpen keeps an opened breaker open for the rest of the
// test.
func holdBreakersOpen(t *testing.T) {
	cooldown := breakerCooldown
	breakerCooldown = time.Minute
	t.Cleanup(func() { breakerCooldown = cooldown })
}

// oneStrikeBreakers makes one transport failure open a breaker, for
// the rest of the test.
func oneStrikeBreakers(t *testing.T) {
	holdBreakersOpen(t)
	failures := breakerFailures
	breakerFailures = 1
	t.Cleanup(func() { breakerFailures = failures })
}

// verifyEveryServe digest-checks every client serve of a hardened
// proxy for the rest of the test.
func verifyEveryServe(t *testing.T) {
	every := verifyEvery
	verifyEvery = 1
	t.Cleanup(func() { verifyEvery = every })
}

// An unhardened proxy, as `hiergdd proxy` and the benchmark run it,
// uses no defense but the 2 s hop deadline: a cooperating peer whose
// every answer breaks off short is asked on every request, and no
// breaker opens or skips it; a client cache serving bodies that differ
// from what was passed down is believed, and no serve is digest-checked.
func TestUnhardenedProxyDefendsNothing(t *testing.T) {
	origin := newTestOrigin()
	t.Cleanup(origin.srv.Close)
	short := shortReply(8<<10, TierPeerProxy)
	var asked atomic.Int64
	badPeer := newFarEnd(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/peer-lookup" {
			asked.Add(1)
		}
		short(w, r)
	}))
	liar := newFakeDaemon(t, []byte("not-what-was-passed-down"))
	px, srv := defenseProxy(t, false, liar)
	px2 := newProxy(t, Options{CapacityBytes: 1 << 20, Peers: []string{badPeer.URL}})
	srv2 := httptest.NewServer(wiretest.StrictFraming(t, px2.Handler()))
	t.Cleanup(srv2.Close)

	if got := px.peerTimeout(); got != defaultPeerTimeout {
		t.Fatalf("per-hop deadline %v, want %v", got, defaultPeerTimeout)
	}
	n := 2*breakerFailures + 1
	for i := range n {
		objURL := fmt.Sprintf("%s/unhardened%d", origin.srv.URL, i)
		if status, tier, _ := fetchVia(t, srv2.URL, objURL); status != http.StatusOK || tier != TierOrigin {
			t.Fatalf("request %d: status %d tier %q, want 200 %q", i, status, tier, TierOrigin)
		}
	}
	px2.pulls.Wait()
	if got := asked.Load(); got != int64(n) {
		t.Errorf("the failing peer was asked %d times in %d requests; no breaker may skip it", got, n)
	}
	if !px2.peerAllowed(coopPeer(px2, badPeer.URL)) {
		t.Error("the failing peer's breaker is open")
	}

	for _, objURL := range urlsOwnedBy(t, px, liar.addr, "unverified", 2*verifyEvery) {
		plantPassDown(px, objURL, []byte("the-body-passed-down"))
		if status, tier, body := fetchVia(t, srv.URL, objURL); status != http.StatusOK || tier != TierClientCache || body != string(liar.body) {
			t.Fatalf("status %d tier %q body %q, want the client cache's body unchecked", status, tier, body)
		}
	}
	for _, p := range []*Proxy{px, px2} {
		if got := p.snapshotStats().Defense; got != (DefenseStats{}) {
			t.Errorf("defense counters %+v, want all zero", got)
		}
	}
}
