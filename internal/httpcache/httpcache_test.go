package httpcache

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"webcache/internal/pastry"
	"webcache/internal/wiretest"
)

// keyOf derives the 128-bit objectId of a URL as /fetch does (§4.1:
// SHA-1 of the URL).
func keyOf(url string) pastry.ID { return pastry.HashString(url) }

// testOrigin is a deterministic origin server counting its hits.
type testOrigin struct {
	srv  *httptest.Server
	hits atomic.Int64
}

func newTestOrigin() *testOrigin {
	o := &testOrigin{}
	o.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		o.hits.Add(1)
		fmt.Fprintf(w, "content-of:%s", r.URL.Path)
	}))
	return o
}

// newProxy builds a proxy from o, failing the test if it cannot.
func newProxy(t testing.TB, o Options) *Proxy {
	t.Helper()
	px, err := NewProxyOpts(o)
	if err != nil {
		t.Fatal(err)
	}
	return px
}

// listenLocal binds a loopback listener ahead of the daemon that will
// serve on it, so the daemon can be built knowing its own base URL and
// its peers'.
func listenLocal(t testing.TB) (net.Listener, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln, "http://" + ln.Addr().String()
}

// serveOn serves h on ln, strictly framed, until the test ends.
func serveOn(t testing.TB, ln net.Listener, h http.Handler) *httptest.Server {
	t.Helper()
	srv := httptest.NewUnstartedServer(wiretest.StrictFraming(t, h))
	srv.Listener.Close()
	srv.Listener = ln
	srv.Start()
	t.Cleanup(srv.Close)
	return srv
}

// deployment spins up an origin, proxies, and client-cache daemons.
type deployment struct {
	t       *testing.T
	origin  *testOrigin
	proxies []*Proxy
	proxyS  []*httptest.Server
	caches  [][]*ClientCache
	cacheS  [][]*httptest.Server
}

func deploy(t *testing.T, numProxies, cachesPerProxy int, proxyCap, cacheCap uint64) *deployment {
	t.Helper()
	return deployWith(t, numProxies, cachesPerProxy,
		func(int) Options { return Options{CapacityBytes: proxyCap} },
		func(int, int) Options { return Options{CapacityBytes: cacheCap} })
}

// deployWith builds proxy p from proxy(p), its cooperating full mesh
// added, and its c-th client cache from cache(p, c).
func deployWith(t *testing.T, numProxies, cachesPerProxy int, proxy func(p int) Options, cache func(p, c int) Options) *deployment {
	t.Helper()
	d := &deployment{t: t, origin: newTestOrigin()}
	t.Cleanup(func() { d.origin.srv.Close() })
	lns := make([]net.Listener, numProxies)
	urls := make([]string, numProxies)
	for p := range lns {
		lns[p], urls[p] = listenLocal(t)
	}
	for p := 0; p < numProxies; p++ {
		o := proxy(p)
		for q, u := range urls {
			if q != p {
				o.Peers = append(o.Peers, u)
			}
		}
		px := newProxy(t, o)
		srv := serveOn(t, lns[p], px.Handler())
		d.proxies = append(d.proxies, px)
		d.proxyS = append(d.proxyS, srv)

		var ccs []*ClientCache
		var ccsrv []*httptest.Server
		for c := 0; c < cachesPerProxy; c++ {
			cc := NewClientCacheOpts(cache(p, c))
			s := httptest.NewServer(wiretest.StrictFraming(t, cc.Handler()))
			t.Cleanup(s.Close)
			addr := strings.TrimPrefix(s.URL, "http://")
			resp, err := http.Post(fmt.Sprintf("%s/register?addr=%s", srv.URL, addr), "text/plain", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			ccs = append(ccs, cc)
			ccsrv = append(ccsrv, s)
		}
		d.caches = append(d.caches, ccs)
		d.cacheS = append(d.cacheS, ccsrv)
	}
	return d
}

// fetch issues a client request through proxy p and returns body+tier.
func (d *deployment) fetch(p int, path string) (string, string) {
	d.t.Helper()
	u := fmt.Sprintf("%s/fetch?url=%s", d.proxyS[p].URL, url.QueryEscape(d.origin.srv.URL+path))
	resp, err := http.Get(u)
	if err != nil {
		d.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		d.t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		d.t.Fatalf("fetch %s: status %d: %s", path, resp.StatusCode, body)
	}
	return string(body), resp.Header.Get("X-Served-By")
}

func TestProxyCacheHit(t *testing.T) {
	d := deploy(t, 1, 2, 1<<20, 1<<20)
	body, tier := d.fetch(0, "/page1")
	if body != "content-of:/page1" || tier != "origin" {
		t.Fatalf("first fetch: %q via %q", body, tier)
	}
	body, tier = d.fetch(0, "/page1")
	if body != "content-of:/page1" || tier != "proxy" {
		t.Fatalf("second fetch: %q via %q", body, tier)
	}
	if n := d.origin.hits.Load(); n != 1 {
		t.Fatalf("origin hits = %d, want 1", n)
	}
}

// Filling the proxy beyond capacity destages evictions into client
// caches; refetching an evicted object must come from a client cache
// without touching the origin.
func TestPassDownAndClientCacheHit(t *testing.T) {
	// Proxy holds ~3 of the ~17-byte objects; client caches are roomy.
	d := deploy(t, 1, 4, 52, 1<<20)
	const n = 12
	for i := 0; i < n; i++ {
		d.fetch(0, fmt.Sprintf("/obj%02d", i))
	}
	st := d.proxies[0].Stats()
	if st.PassDowns == 0 {
		t.Fatal("no pass-downs despite proxy overflow")
	}
	if st.DirEntries == 0 {
		t.Fatal("directory empty after pass-downs")
	}
	origin := d.origin.hits.Load()
	served := map[string]int{}
	for i := 0; i < n; i++ {
		_, tier := d.fetch(0, fmt.Sprintf("/obj%02d", i))
		served[tier]++
	}
	if served["client-cache"] == 0 {
		t.Fatalf("no client-cache hits on refetch: %v", served)
	}
	if got := d.origin.hits.Load(); got != origin {
		t.Fatalf("refetch went to origin %d times", got-origin)
	}
	// Bodies are intact coming out of the client caches.
	body, _ := d.fetch(0, "/obj03")
	if body != "content-of:/obj03" {
		t.Fatalf("corrupted body %q", body)
	}
}

// A cooperating proxy serves from its own cache over /peer-lookup.
func TestRemoteProxyHit(t *testing.T) {
	d := deploy(t, 2, 2, 1<<20, 1<<20)
	d.fetch(0, "/shared") // proxy 0 now caches it
	origin := d.origin.hits.Load()
	_, tier := d.fetch(1, "/shared")
	if tier != "remote-proxy" {
		t.Fatalf("tier = %q, want remote-proxy", tier)
	}
	if d.origin.hits.Load() != origin {
		t.Fatal("remote hit still touched the origin")
	}
	// Proxy 1 cached the fetched copy (SC behaviour): now local.
	_, tier = d.fetch(1, "/shared")
	if tier != "proxy" {
		t.Fatalf("tier after remote fetch = %q, want proxy", tier)
	}
}

// The relay (§4.5): an object living only in proxy 0's *client caches*
// is served to proxy 1 by proxy 0, which fetches it from the client
// cache; proxy 1 is never told a client cache's address.
func TestRelayAcrossProxies(t *testing.T) {
	d := deploy(t, 2, 3, 52, 1<<20)
	const n = 12
	for i := 0; i < n; i++ {
		d.fetch(0, fmt.Sprintf("/p%02d", i))
	}
	if d.proxies[0].Stats().DirEntries == 0 {
		t.Fatal("nothing destaged to client caches")
	}
	// Proxy 0 fetched each object once, from the origin, so every
	// client-cache hit from here on is a relay.
	relays := func() (n int) {
		for _, cc := range d.caches[0] {
			n += cc.snapshotStats().Hits
		}
		return n
	}
	origin := d.origin.hits.Load()
	for i := 0; i < n; i++ {
		if _, tier := d.fetch(1, fmt.Sprintf("/p%02d", i)); tier != TierRemoteProxy {
			t.Fatalf("/p%02d served by %q, want %q", i, tier, TierRemoteProxy)
		}
	}
	if relays() == 0 {
		t.Fatal("proxy 0 relayed nothing from its client caches")
	}
	if d.origin.hits.Load() != origin {
		t.Fatal("objects held by the cooperating proxy's clients still hit the origin")
	}
}

// Diversion: a full destination cache refuses the ifFree probe and the
// object lands on a neighbour.  Cache ids derive from OS-assigned
// ports, so the destination distribution varies per run; six caches of
// three slots each under forty destaged objects make at least one
// imbalanced (divertible) store a statistical certainty.
func TestDiversionOverHTTP(t *testing.T) {
	d := deploy(t, 1, 6, 52, 52)
	for i := 0; i < 43; i++ {
		d.fetch(0, fmt.Sprintf("/d%02d", i))
	}
	st := d.proxies[0].Stats()
	if st.PassDowns == 0 {
		t.Fatal("no pass-downs")
	}
	if st.Diversions == 0 {
		t.Fatal("no diversions despite full destinations")
	}
}

func TestClientCacheDaemonEndpoints(t *testing.T) {
	cc := NewClientCacheOpts(Options{CapacityBytes: 1 << 20})
	srv := httptest.NewServer(wiretest.StrictFraming(t, cc.Handler()))
	defer srv.Close()
	key := pastry.HashString("http://x/y").String()

	// Missing object.
	resp, _ := http.Get(fmt.Sprintf("%s/object?key=%s", srv.URL, key))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	// Store then fetch.
	resp, err := http.Post(fmt.Sprintf("%s/store?key=%s&cost=1", srv.URL, key),
		"application/octet-stream", strings.NewReader("hello"))
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(rec) != "1" {
		t.Fatalf("store receipt %q, want 1", rec)
	}
	resp, _ = http.Get(fmt.Sprintf("%s/object?key=%s", srv.URL, key))
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "hello" {
		t.Fatalf("body %q", body)
	}

	// Bad keys.
	for _, bad := range []string{"zz", strings.Repeat("g", 32)} {
		resp, _ := http.Get(fmt.Sprintf("%s/object?key=%s", srv.URL, bad))
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad key %q: status %d", bad, resp.StatusCode)
		}
	}

	// Stats.
	if st := cc.snapshotStats(); st.Objects != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRing(t *testing.T) {
	var r ring
	if r.owner(pastry.HashString("k")) != nil {
		t.Fatal("owner on empty ring")
	}
	r.add("a:1")
	b := r.add("b:2")
	r.add("c:3")
	r.add("a:1") // duplicate
	if r.size() != 3 {
		t.Fatalf("size = %d", r.size())
	}
	// Ownership is deterministic and stable.
	key := pastry.HashString("some-url")
	o1 := r.owner(key)
	o2 := r.owner(key)
	if o1 != o2 {
		t.Fatal("owner unstable")
	}
	r.remove(b)
	r.remove(b) // idempotent
	if r.size() != 2 {
		t.Fatalf("size after remove = %d", r.size())
	}
	if o := r.owner(key); o.addr == "b:2" {
		t.Fatal("removed node still owns keys")
	}
}

// TestRingNeighbours: the diversion candidates are the owner's own
// ring neighbours, successor first — not whichever members sort first,
// which on a ring of more than three left most owners nowhere to
// divert once those two were full.
func TestRingNeighbours(t *testing.T) {
	var r ring
	if got := r.neighbours(nil, &peer{addr: "a:1", id: pastry.HashString("a:1")}); len(got) != 0 {
		t.Fatalf("neighbours on an empty ring = %v", got)
	}
	var addrs []string
	var first *peer
	for i := 0; i < 7; i++ {
		addrs = append(addrs, fmt.Sprintf("cache-%d:80", i))
		m := r.add(addrs[i])
		if i == 0 {
			first = m
		}
		switch got := addrsOf(r.neighbours(nil, first)); {
		case i == 0 && len(got) != 0:
			t.Fatalf("neighbours of the only member = %v", got)
		case i == 1 && !slices.Equal(got, addrs[1:2]):
			t.Fatalf("neighbours on a ring of two = %v, want %v", got, addrs[1:2])
		case i == 2 && !(slices.Contains(got, addrs[1]) && slices.Contains(got, addrs[2]) && len(got) == 2):
			t.Fatalf("neighbours on a ring of three = %v, want both other members", got)
		}
	}
	sorted := slices.Clone(addrs)
	slices.SortFunc(sorted, func(a, b string) int { return pastry.HashString(a).Cmp(pastry.HashString(b)) })
	n := len(sorted)
	for i, a := range sorted {
		want := []string{sorted[(i+1)%n], sorted[(i+n-1)%n]}
		m := r.members[r.search(pastry.HashString(a))]
		if got := addrsOf(r.neighbours(nil, m)); !slices.Equal(got, want) {
			t.Errorf("neighbours(%s) = %v, want successor and predecessor %v", a, got, want)
		}
		// A member that has just left still names the same neighbours.
		r.remove(m)
		if got := addrsOf(r.neighbours(nil, m)); !slices.Equal(got, want) {
			t.Errorf("neighbours(%s) after it left = %v, want %v", a, got, want)
		}
		r.add(a)
	}
}

// addrsOf lists the addresses of ring records, in order.
func addrsOf(ms []*peer) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.addr
	}
	return out
}

// member returns px's ring record of the client cache at addr, or nil
// when none is registered there.
func member(px *Proxy, addr string) *peer {
	for _, m := range px.ring.snapshot() {
		if m.addr == addr {
			return m
		}
	}
	return nil
}

// coopPeer returns px's record of the cooperating proxy at base.
func coopPeer(px *Proxy, base string) *peer {
	for _, c := range px.coop {
		if c.base == base {
			return c
		}
	}
	return nil
}

func TestFoldDeterministic(t *testing.T) {
	a := fold(pastry.HashString("u1"))
	b := fold(pastry.HashString("u1"))
	c := fold(pastry.HashString("u2"))
	if a != b || a == c {
		t.Fatal("fold not behaving")
	}
}

func TestKeyFromHexRoundTrip(t *testing.T) {
	id := pastry.HashString("round-trip")
	for _, hex := range []string{id.String(), strings.ToUpper(id.String())} {
		if got, ok := hexID(hex); !ok || got != id {
			t.Fatalf("hexID(%s) = %v, %v, want %v", hex, got, ok, id)
		}
		if got, ok := hexID([]byte(hex)); !ok || got != id {
			t.Fatalf("hexID([]byte(%s)) = %v, %v, want %v", hex, got, ok, id)
		}
	}
	for _, bad := range []string{"", "zz", id.String()[:31], id.String() + "0", "zz" + id.String()[2:], "+f" + id.String()[2:], "0x" + id.String()[2:]} {
		if _, ok := hexID(bad); ok {
			t.Errorf("hexID(%q) accepted a malformed key", bad)
		}
	}
}
