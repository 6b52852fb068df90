package httpcache

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"webcache/internal/store"
	"webcache/internal/wiretest"
)

// urlsOwnedBy returns n distinct URLs whose ring owner is addr.  Cache
// ids derive from OS-assigned ports, so which URLs a daemon owns varies
// per run; picking them by ownership is what makes the counts below
// repeat exactly.
func urlsOwnedBy(t *testing.T, px *Proxy, addr, prefix string, n int) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < n; i++ {
		if i > 100000 {
			t.Fatalf("no %d URLs owned by %s", n, addr)
		}
		u := fmt.Sprintf("http://origin.test/%s%05d", prefix, i)
		if px.ring.owner(keyOf(u)).addr == addr {
			out = append(out, u)
		}
	}
	return out
}

// evictedObj is a ten-byte object keyed by u, as passDown receives it.
func evictedObj(u string) store.Object {
	return store.Object{HexKey: keyOf(u).String(), Body: []byte("abcdefghij"), Cost: 1}
}

// ringOf starts one client-cache daemon per capacity, registers each in
// a fresh proxy's ring and returns the proxy, the daemons and their
// addresses.
func ringOf(t *testing.T, capacities ...uint64) (*Proxy, []*ClientCache, []string) {
	t.Helper()
	return ringWith(t, Options{CapacityBytes: 1 << 20}, capacities...)
}

// ringWith is ringOf with the proxy built from o.
func ringWith(t *testing.T, o Options, capacities ...uint64) (*Proxy, []*ClientCache, []string) {
	t.Helper()
	px := newProxy(t, o)
	var ccs []*ClientCache
	var addrs []string
	for _, c := range capacities {
		cc := NewClientCacheOpts(Options{CapacityBytes: c})
		srv := httptest.NewServer(wiretest.StrictFraming(t, cc.Handler()))
		t.Cleanup(srv.Close)
		addr := strings.TrimPrefix(srv.URL, "http://")
		px.ring.add(addr)
		ccs = append(ccs, cc)
		addrs = append(addrs, addr)
	}
	return px, ccs, addrs
}

// storeCost is the pass-down accounting a test diffs between steps.
type storeCost struct{ passDowns, calls, refusals, diversions int }

func costOf(px *Proxy) storeCost {
	st := px.snapshotStats()
	return storeCost{st.PassDowns, st.StoreCalls, st.StoreRefusals, st.Diversions}
}

func (a storeCost) minus(b storeCost) storeCost {
	return storeCost{a.passDowns - b.passDowns, a.calls - b.calls, a.refusals - b.refusals, a.diversions - b.diversions}
}

// At steady state a pass-down is one /store round trip.  Three daemons
// of five slots are filled through the proxy by evictions that all
// belong to one of them, so the fill has to divert; after it every
// daemon is full and known to be, and each further eviction costs one
// POST and no refusal.  (At the parent the same evictions cost four
// POSTs each: three refused trials and the forced store.)
func TestPassDownOneStorePerEviction(t *testing.T) {
	// Bodies are "content-of:/fNNNNN" = 18 bytes: the proxy holds one,
	// so every fetch of a new URL evicts the previous one; a daemon
	// holds five.
	const slots, bodyLen = 5, 18
	d := deploy(t, 1, 3, bodyLen+2, slots*bodyLen+bodyLen/2)
	px := d.proxies[0]
	stores := func() (n int) {
		for _, cc := range d.caches[0] {
			n += cc.snapshotStats().Stores
		}
		return n
	}
	// keyOf hashes the URL the proxy sees, which carries the test
	// origin's address.
	owner := addrsOf(px.ring.snapshot())[0]
	var fill []string
	for i := 0; len(fill) < 3*slots+1; i++ {
		path := fmt.Sprintf("/f%05d", i)
		if px.ring.owner(keyOf(d.origin.srv.URL+path)).addr == owner {
			fill = append(fill, path)
		}
	}
	for _, path := range fill {
		d.fetch(0, path)
	}
	filled := costOf(px)
	if filled.passDowns != 3*slots || filled.calls != stores()+filled.refusals {
		t.Fatalf("fill: %+v with %d daemon stores, want %d pass-downs and calls = stores + refusals",
			filled, stores(), 3*slots)
	}
	if filled.diversions != 2*slots {
		t.Fatalf("fill: %d diversions, want %d (everything past the owner's %d slots)", filled.diversions, 2*slots, slots)
	}
	for i, cc := range d.caches[0] {
		if cc.Objects() != slots {
			t.Fatalf("fill: daemon %d holds %d objects, want %d", i, cc.Objects(), slots)
		}
	}

	const n = 20
	before := stores()
	for i := 0; i < n; i++ {
		d.fetch(0, fmt.Sprintf("/s%05d", i))
	}
	steady := costOf(px).minus(filled)
	want := storeCost{passDowns: n, calls: n}
	if steady != want || stores()-before != n {
		t.Fatalf("steady state: %+v and %d daemon stores for %d evictions, want %+v and %d",
			steady, stores()-before, n, want, n)
	}
}

// A figure that promises room the daemon no longer has costs one
// refused trial: the 507 corrects it, the object lands where the old
// probe order would have put it, and the next pass-down is one POST.
func TestPassDownStaleFigureCorrected(t *testing.T) {
	px, ccs, addrs := ringOf(t, 25, 25) // two ten-byte slots each
	a, b := addrs[0], addrs[1]
	urls := urlsOwnedBy(t, px, a, "o", 3)

	px.passDown(evictedObj(urls[0]))
	if !px.ring.mayFit(member(px, a), 10) {
		t.Fatal("owner with one free slot is not a candidate")
	}
	// Behind the proxy's back: the owner's last slot goes.
	resp, err := http.Post(fmt.Sprintf("http://%s/store?key=%s&cost=1", a, keyOf("filler").String()),
		"application/octet-stream", strings.NewReader("0123456789"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	before := costOf(px)
	px.passDown(evictedObj(urls[1]))
	if got, want := costOf(px).minus(before), (storeCost{1, 2, 1, 1}); got != want {
		t.Fatalf("stale pass-down: %+v, want %+v (one refused trial, then the neighbour)", got, want)
	}
	if ccs[1].Objects() != 1 || ccs[0].Objects() != 2 {
		t.Fatalf("objects = %d at the owner, %d at the neighbour, want 2 and 1", ccs[0].Objects(), ccs[1].Objects())
	}
	if px.ring.mayFit(member(px, a), 10) || !px.ring.mayFit(member(px, a), 5) {
		t.Fatal("the 507 did not correct the owner's figure to its 5 free bytes")
	}

	before = costOf(px)
	px.passDown(evictedObj(urls[2]))
	if got, want := costOf(px).minus(before), (storeCost{1, 1, 0, 1}); got != want {
		t.Fatalf("pass-down after the correction: %+v, want %+v", got, want)
	}
	if ccs[1].Objects() != 2 {
		t.Fatalf("neighbour %s holds %d objects, want 2", b, ccs[1].Objects())
	}
}

// A daemon that registers again has restarted: its figure is unknown
// once more, so the next pass-down asks it instead of passing it over
// for a neighbour, and an empty cache stores without evicting.
func TestPassDownReRegisterForgetsFigure(t *testing.T) {
	px := newProxy(t, Options{CapacityBytes: 1 << 20})
	pxSrv := httptest.NewServer(wiretest.StrictFraming(t, px.Handler()))
	t.Cleanup(pxSrv.Close)

	var owner atomic.Pointer[ClientCache]                       // swapped to restart the daemon on its address
	owner.Store(NewClientCacheOpts(Options{CapacityBytes: 15})) // one ten-byte slot
	ownerSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		owner.Load().Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ownerSrv.Close)
	roomy := NewClientCacheOpts(Options{CapacityBytes: 1 << 20})
	roomySrv := httptest.NewServer(wiretest.StrictFraming(t, roomy.Handler()))
	t.Cleanup(roomySrv.Close)
	a := strings.TrimPrefix(ownerSrv.URL, "http://")
	px.ring.add(a)
	px.ring.add(strings.TrimPrefix(roomySrv.URL, "http://"))
	urls := urlsOwnedBy(t, px, a, "r", 3)

	px.passDown(evictedObj(urls[0])) // fills the owner
	px.passDown(evictedObj(urls[1])) // known full: diverted, and the neighbour's room is now known
	if st := px.snapshotStats(); st.Diversions != 1 || st.StoreRefusals != 0 || px.ring.mayFit(member(px, a), 10) {
		t.Fatalf("setup: %+v, owner still a candidate: %v", costOf(px), px.ring.mayFit(member(px, a), 10))
	}

	fresh := NewClientCacheOpts(Options{CapacityBytes: 15})
	owner.Store(fresh)
	resp, err := http.Post(fmt.Sprintf("%s/register?addr=%s", pxSrv.URL, a), "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !px.ring.mayFit(member(px, a), 10) {
		t.Fatal("re-registration did not reset the owner's figure to unknown")
	}

	before := costOf(px)
	px.passDown(evictedObj(urls[2]))
	if got, want := costOf(px).minus(before), (storeCost{passDowns: 1, calls: 1}); got != want {
		t.Fatalf("pass-down after re-registration: %+v, want %+v", got, want)
	}
	if fresh.Objects() != 1 || roomy.Objects() != 1 {
		t.Fatalf("objects = %d at the restarted owner, %d at the neighbour, want 1 and 1", fresh.Objects(), roomy.Objects())
	}
}

// A daemon that predates the headroom header is probed as at the
// parent: three refused trials and the forced store, every time.
func TestPassDownHeaderlessDaemonProbed(t *testing.T) {
	px := newProxy(t, Options{CapacityBytes: 1 << 20})
	var posts atomic.Int64
	for i := 0; i < 3; i++ {
		srv := newFarEnd(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			posts.Add(1)
			io.Copy(io.Discard, r.Body)
			if queryParam(r.URL.RawQuery, "ifFree") == "1" {
				http.Error(w, "no free space", http.StatusInsufficientStorage)
				return
			}
			w.Write([]byte("1"))
		}))
		px.ring.add(srv.addr)
	}
	const n = 5
	for i := 0; i < n; i++ {
		px.passDown(evictedObj(fmt.Sprintf("http://origin.test/h%d", i)))
	}
	if got, want := costOf(px), (storeCost{passDowns: n, calls: 4 * n, refusals: 3 * n}); got != want || posts.Load() != 4*n {
		t.Fatalf("headerless daemons: %+v and %d POSTs received, want %+v and %d", got, posts.Load(), want, 4*n)
	}
}

// Refused stores and missed lookups must leave their keep-alive
// connection usable: fifty of each against one daemon open one
// connection each way, not fifty.
func TestRefusedAndMissedRepliesKeepConnection(t *testing.T) {
	cc := NewClientCacheOpts(Options{CapacityBytes: 15})
	cc.store.Put(fold(keyOf("filler")), store.Object{HexKey: keyOf("filler").String(), Body: []byte("0123456789"), Cost: 1})
	var opened atomic.Int64
	srv := httptest.NewUnstartedServer(wiretest.StrictFraming(t, cc.Handler()))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	addr := strings.TrimPrefix(srv.URL, "http://")
	px := newProxy(t, Options{CapacityBytes: 1 << 20})
	px.ring.add(addr)

	const n = 50
	for i := 0; i < n; i++ {
		if _, ok, err := px.storeAt(member(px, addr), evictedObj("http://origin.test/refused"), true); ok || err != nil {
			t.Fatalf("trial store %d into a full daemon = (%v, %v), want a refusal", i, ok, err)
		}
	}
	if got := px.snapshotStats().StoreRefusals; got != n {
		t.Fatalf("store_refusals = %d, want %d", got, n)
	}
	if got := opened.Load(); got != 1 {
		t.Fatalf("%d refused stores opened %d connections, want 1", n, got)
	}
	for i := 0; i < n; i++ {
		if _, ok := px.lanFetch(context.Background(), member(px, addr), keyOf("http://origin.test/absent"), ""); ok {
			t.Fatal("fetched an object the daemon does not hold")
		}
	}
	if got := opened.Load(); got > 2 {
		t.Fatalf("%d refused stores and %d missed fetches opened %d connections, want one each way at most", n, n, got)
	}
	if px.ring.size() != 1 {
		t.Fatal("a refusing daemon was taken off the ring")
	}
}

// countingReader is a request body that reports how much of it was read.
type countingReader struct {
	left int
	read int
}

func (c *countingReader) Read(p []byte) (int, error) {
	if c.left == 0 {
		return 0, io.EOF
	}
	n := min(len(p), c.left)
	c.left -= n
	c.read += n
	return n, nil
}

// A trial store whose declared length does not fit is refused before a
// byte of it is buffered, with the headroom on the refusal; without a
// declared length the daemon has to read before it can tell.
func TestStoreRefusesBeforeBuffering(t *testing.T) {
	cc := NewClientCacheOpts(Options{CapacityBytes: 15})
	cc.store.Put(fold(keyOf("filler")), store.Object{HexKey: keyOf("filler").String(), Body: []byte("0123456789"), Cost: 1})
	target := fmt.Sprintf("/store?key=%s&cost=1&ifFree=1", keyOf("http://origin.test/big"))
	for _, tc := range []struct {
		name             string
		declared, length int
		wantRead         int
	}{
		{"declared 1 MiB", 1 << 20, 1 << 20, 0},
		{"undeclared", -1, 20, 20},
	} {
		body := &countingReader{left: tc.length}
		req := httptest.NewRequest("POST", target, body)
		req.ContentLength = int64(tc.declared)
		rec := httptest.NewRecorder()
		cc.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusInsufficientStorage {
			t.Fatalf("%s: status %d, want 507", tc.name, rec.Code)
		}
		if got := rec.Header().Get(FreeHeader); got != "5" {
			t.Fatalf("%s: %s = %q on the refusal, want 5", tc.name, FreeHeader, got)
		}
		if body.read != tc.wantRead {
			t.Fatalf("%s: the daemon read %d body bytes before refusing, want %d", tc.name, body.read, tc.wantRead)
		}
	}
	if st := cc.snapshotStats(); st.Stores != 0 || st.Objects != 1 {
		t.Fatalf("refused stores changed the daemon: %+v", st)
	}
}

// A hardened proxy books a store receipt once, in its one directory
// table: the key the receipt stores is listed with the digest of the
// body passed down, the key it evicts is gone, and a stale listing the
// client-cache tier repairs takes its digest with it, so a copy listed
// again without one is not held to the old body.
func TestHardenedReceiptListsDigest(t *testing.T) {
	verifyEveryServe(t)
	origin := httptest.NewServer(http.NotFoundHandler()) // every miss is a 502
	t.Cleanup(origin.Close)
	const bodyLen = 10
	px, ccs, addrs := ringWith(t, Options{CapacityBytes: 1 << 20, Hardened: true}, bodyLen+bodyLen/2)
	srv := httptest.NewServer(wiretest.StrictFraming(t, px.Handler()))
	t.Cleanup(srv.Close)
	evicted, kept := origin.URL+"/evicted", origin.URL+"/kept"
	keptBody := []byte("kept-body!")
	// storeDirect puts body under u's key at the daemon behind the
	// proxy's back, evicting what it held.
	storeDirect := func(u, body string) {
		t.Helper()
		resp, err := http.Post(fmt.Sprintf("http://%s/store?key=%s&cost=1", addrs[0], keyOf(u)),
			"application/octet-stream", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	px.passDown(store.Object{HexKey: keyOf(evicted).String(), Body: []byte("evicted!!!"), Cost: 1})
	px.passDown(store.Object{HexKey: keyOf(kept).String(), Body: keptBody, Cost: 1})
	if _, ok := ccs[0].store.Get(fold(keyOf(evicted))); ok {
		t.Fatal("the daemon kept both objects; the second store evicted nothing")
	}
	if sum, ok := listing(px, keyOf(kept)); !ok || sum != bodyDigest(keptBody) {
		t.Errorf("stored key listed %v with digest %x, want listed with %x", ok, sum, bodyDigest(keptBody))
	}
	if _, ok := listing(px, keyOf(evicted)); ok {
		t.Error("evicted key still listed")
	}

	storeDirect(origin.URL+"/other", "other-body")
	if status, _, _ := fetchVia(t, srv.URL, kept); status != http.StatusBadGateway {
		t.Fatalf("status %d, want 502: the listing is stale and the origin has nothing", status)
	}
	if _, ok := listing(px, keyOf(kept)); ok {
		t.Fatal("the stale listing was not repaired")
	}

	storeDirect(kept, "other-body")
	plantDir(px, kept)
	before := px.snapshotStats()
	if status, tier, body := fetchVia(t, srv.URL, kept); status != http.StatusOK || tier != TierClientCache || body != "other-body" {
		t.Fatalf("status %d tier %q body %q, want the client cache's copy", status, tier, body)
	}
	if got := statsDelta(before, px.snapshotStats()); got != (ProxyStats{Requests: 1, ClientHits: 1}) {
		t.Errorf("a copy listed with no digest moved the proxy by %+v, want one unchecked client hit", got)
	}
}
