package httpcache

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"webcache/internal/invariant"
	"webcache/internal/obs"
	"webcache/internal/obs/slo"
	"webcache/internal/store"
)

// Every Options field reaches the daemon it builds: each daemon is built
// with all of them set and serves one request.  A client cache ignores
// the proxy-only fields.
func TestOptionsReachDaemon(t *testing.T) {
	origin := newTestOrigin()
	t.Cleanup(origin.srv.Close)
	var asked atomic.Int64
	peerSrv := newFarEnd(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/peer-lookup" {
			asked.Add(1)
		}
		http.NotFound(w, r)
	}))
	seedURL, objURL := origin.srv.URL+"/seeded", origin.srv.URL+"/asked"

	// built is a daemon as a row checks it after its one request.
	type built struct {
		h     http.Handler
		ready func()
		check func(t *testing.T)
	}
	for _, tc := range []struct {
		name      string
		path      string // the one request
		span      string // a span it records
		proxyOnly bool   // whether slo.* is published
		build     func(t *testing.T, o Options) built
	}{
		{"proxy", "/fetch?url=" + url.QueryEscape(objURL), "origin.fetch", true, func(t *testing.T, o Options) built {
			px := newProxy(t, o)
			t.Cleanup(px.Close)
			return built{px.Handler(), px.MarkReady, func(t *testing.T) {
				if got := px.peerTimeout(); got != hardenedPeerTimeout {
					t.Errorf("per-hop deadline %v, want the hardened %v", got, hardenedPeerTimeout)
				}
				if n := asked.Load(); n != 1 {
					t.Errorf("cooperating peer asked %d times, want 1", n)
				}
				if px.acct == nil {
					t.Fatal("pass-down ledger missing")
				}
				px.ReconcileAccounting()
				if err := o.Check.Err(); err != nil {
					t.Errorf("ledger does not reconcile: %v", err)
				}
			}}
		}},
		{"client cache", "/object?key=" + keyOf(seedURL).String(), "client.object", false, func(t *testing.T, o Options) built {
			cc := NewClientCacheOpts(o)
			t.Cleanup(cc.Close)
			id := keyOf(seedURL)
			if _, stored, err := cc.store.Put(fold(id), store.Object{HexKey: id.String(), Body: []byte("seeded"), Cost: 1}); !stored || err != nil {
				t.Fatalf("seeding: stored %v, err %v", stored, err)
			}
			return built{cc.Handler(), cc.MarkReady, func(t *testing.T) {
				if st := cc.snapshotStats(); st.Hits != 1 {
					t.Errorf("hits %d, want 1 (the seeded object)", st.Hits)
				}
			}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry(tc.name)
			tr := obs.NewTracer(obs.TracerOptions{Origin: tc.name, Clock: obs.ClockWall})
			var events eventBuf
			ln, _ := listenLocal(t)
			d := tc.build(t, Options{
				CapacityBytes: 1 << 20,
				Metrics:       reg,
				Tracer:        tr,
				Events:        obs.NewEventLog(tc.name, &events),
				SLOClasses:    []slo.Class{{Name: "interactive", Latency: time.Second, Availability: 0.99}},
				Hardened:      true,
				Peers:         []string{peerSrv.URL},
				Check:         invariant.New(nil),
			})
			srv := serveOn(t, ln, d.h)
			d.ready()
			if status, _ := get(t, srv.URL+tc.path); status != http.StatusOK {
				t.Fatalf("GET %s: status %d", tc.path, status)
			}
			if status, _ := get(t, srv.URL+"/metrics"); status != http.StatusOK {
				t.Fatalf("GET /metrics: status %d", status)
			}
			d.check(t)

			values := reg.Values()
			has := func(prefix string) bool {
				for name := range values {
					if strings.HasPrefix(name, prefix) {
						return true
					}
				}
				return false
			}
			if !has("httpcache.") {
				t.Error("no httpcache.* gauges in the registry")
			}
			if has("slo.") != tc.proxyOnly {
				t.Errorf("slo.* published: %v, want %v", has("slo."), tc.proxyOnly)
			}
			var spans []string
			for _, st := range tr.Snapshots() {
				for _, sp := range st.Spans {
					spans = append(spans, sp.Name)
				}
			}
			if !slices.Contains(spans, tc.span) {
				t.Errorf("tracer recorded spans %v, want %s among them", spans, tc.span)
			}
			if events.count("ready.up") == 0 {
				t.Error("the event log has no ready.up")
			}
		})
	}
}

// Peers may be given in operator shorthand: no
// scheme, a stray space, a trailing slash.  The proxy normalizes them,
// so a peer so written is asked, and serves.
func TestPeersNormalized(t *testing.T) {
	origin := newTestOrigin()
	t.Cleanup(origin.srv.Close)
	objURL := origin.srv.URL + "/normalized"
	peerPx := newProxy(t, Options{CapacityBytes: 1 << 20})
	peerSrv := httptest.NewServer(peerPx.Handler())
	t.Cleanup(peerSrv.Close)
	if status, tier := get(t, peerSrv.URL+"/fetch?url="+url.QueryEscape(objURL)); status != http.StatusOK || tier != TierOrigin {
		t.Fatalf("warming the peer: status %d tier %q", status, tier)
	}
	hostPort := strings.TrimPrefix(peerSrv.URL, "http://")
	for _, peers := range [][]string{
		{hostPort + "/"},
		{" " + peerSrv.URL},
		{hostPort + "/", " " + peerSrv.URL},
	} {
		px := newProxy(t, Options{CapacityBytes: 1 << 20, Peers: peers})
		srv := httptest.NewServer(px.Handler())
		if status, tier := get(t, srv.URL+"/fetch?url="+url.QueryEscape(objURL)); status != http.StatusOK || tier != TierRemoteProxy {
			t.Errorf("peers %q: status %d tier %q, want 200 %q", peers, status, tier, TierRemoteProxy)
		}
		srv.Close()
		px.Close()
	}
}

// A Peers entry that a hop cannot dial is refused by name when the proxy
// is built: hops are frames on plain TCP behind an Upgrade to the root
// handler, dialled at the entry's host and port, so only an http:// URL
// with a host, a port and no path reaches a peer.  The shorthand
// TestPeersNormalized takes is accepted.
func TestPeersRefused(t *testing.T) {
	for _, tc := range []struct {
		peers []string
		bad   string // the entry the error names; "" = accepted
		dial  string // the accepted last entry's dial address
	}{
		{peers: []string{"https://cache.example:8443"}, bad: "https://cache.example:8443"},
		{peers: []string{"127.0.0.1:9000", "https://127.0.0.1:9001"}, bad: "https://127.0.0.1:9001"},
		{peers: []string{"http://127.0.0.1:9000/proxy"}, bad: "http://127.0.0.1:9000/proxy"},
		{peers: []string{"127.0.0.1:9000/proxy/"}, bad: "127.0.0.1:9000/proxy/"},
		{peers: []string{"http://127.0.0.1:9000?x=1"}, bad: "http://127.0.0.1:9000?x=1"},
		{peers: []string{"http://user@127.0.0.1:9000"}, bad: "http://user@127.0.0.1:9000"},
		{peers: []string{"ftp://127.0.0.1:9000"}, bad: "ftp://127.0.0.1:9000"},
		{peers: []string{"http://"}, bad: "http://"},
		{peers: []string{"http://cache.example"}, bad: "http://cache.example"},
		{peers: []string{"http://:9000"}, bad: "http://:9000"},
		{peers: []string{" http://127.0.0.1:9000/ "}, dial: "127.0.0.1:9000"},
		{peers: []string{"", "127.0.0.1:9000"}, dial: "127.0.0.1:9000"},
		{peers: []string{"[::1]:9000"}, dial: "[::1]:9000"},
	} {
		px, err := NewProxyOpts(Options{CapacityBytes: 1 << 10, Peers: tc.peers})
		if tc.bad != "" {
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(tc.bad)) {
				t.Errorf("peers %q: error %v, want one naming %q", tc.peers, err, tc.bad)
			}
			continue
		}
		if err != nil {
			t.Errorf("peers %q: %v", tc.peers, err)
			continue
		}
		if got := px.coop[len(px.coop)-1].addr; got != tc.dial {
			t.Errorf("peers %q: a hop dials %q, want %q", tc.peers, got, tc.dial)
		}
		px.Close()
	}
}
