//go:build !race

package httpcache

// Zero-alloc gate on the live proxy's memory-hit path: once an object
// sits in the memory store, serving it must not touch the heap.  The
// pieces that make this hold are queryRaw (no url.Values per request),
// appendUnescaped (an escaped URL is hashed from a stack buffer), the
// preallocated servedBy header slices, and the store's Get (see
// hotpath.go and DESIGN.md §13).
//
// Excluded under the race detector (make check), whose instrumentation
// allocates on paths the production build does not.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"webcache/internal/store"
)

// discardWriter is a reusable ResponseWriter: a preallocated header
// map and a body sink, so the gate measures the handler, not the
// recorder.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestFetchHitPathAllocs holds the memory hit to 0 allocations on a
// reused header map, which measures the handler alone, and to exactly 1
// on a fresh one per request, as net/http's response hands each
// request: the first insert into the empty map.
func TestFetchHitPathAllocs(t *testing.T) {
	const runs = 2000
	p := newProxy(t, Options{CapacityBytes: 1 << 20})
	const url = "http://origin.example.com/objects/alloc-gate-object-0001"
	id := keyOf(url)
	body := bytes.Repeat([]byte("x"), 4096)
	if _, _, err := p.store.Put(fold(id), store.Object{HexKey: id.String(), Body: body, Cost: 1}); err != nil {
		t.Fatal(err)
	}
	// The load generator sends the URL query-escaped; a hand-typed
	// request may not.  Both name the same key.
	for _, sent := range []string{url, neturl.QueryEscape(url)} {
		req := httptest.NewRequest("GET", "/fetch?url="+sent, nil)
		w := &discardWriter{h: make(http.Header, 4)}
		p.handleFetch(w, req)
		if got := w.h.Get(ServedByHeader); got != TierProxy {
			t.Fatalf("warmup request for %q served by %q, want %q (gate must measure the memory-hit path)", sent, got, TierProxy)
		}
		allocs := testing.AllocsPerRun(runs, func() { p.handleFetch(w, req) })
		if allocs != 0 {
			t.Errorf("proxy memory-hit path for %q allocates %.1f objects/request, want 0", sent, allocs)
		}
		// One fresh map for each run AllocsPerRun makes, and one to warm up.
		fresh := make([]http.Header, runs+1)
		for i := range fresh {
			fresh[i] = make(http.Header)
		}
		allocs = testing.AllocsPerRun(runs, func() {
			w.h, fresh = fresh[0], fresh[1:]
			p.handleFetch(w, req)
		})
		if allocs != 1 {
			t.Errorf("proxy memory-hit path for %q on a fresh header map allocates %.1f objects/request, want 1", sent, allocs)
		}
	}
}

// TestObjectHitPathAllocs holds the client-cache daemon's /object hit
// path to the same bar — it is the LAN-fetch server side of every P2P
// hit.
func TestObjectHitPathAllocs(t *testing.T) {
	c := NewClientCacheOpts(Options{CapacityBytes: 1 << 20})
	const url = "http://origin.example.com/objects/alloc-gate-object-0002"
	id := keyOf(url)
	body := bytes.Repeat([]byte("y"), 4096)
	if _, _, err := c.store.Put(fold(id), store.Object{HexKey: id.String(), Body: body, Cost: 1}); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/object?key="+id.String(), nil)
	w := &discardWriter{h: make(http.Header, 4)}
	c.handleObject(w, req)
	if got := w.h.Get(ServedByHeader); got != TierClientCache {
		t.Fatalf("warmup request served by %q, want %q", got, TierClientCache)
	}
	allocs := testing.AllocsPerRun(2000, func() { c.handleObject(w, req) })
	if allocs != 0 {
		t.Errorf("client-cache hit path allocates %.1f objects/request, want 0", allocs)
	}
}

// TestHopAllocsPerRun counts what one member-to-member hop allocates,
// both ends together (AllocsPerRun counts every goroutine's allocations,
// the far end's frame loop included), on plain handlers: an 8 KiB LAN
// fetch keeps one body, whether its requester can hang up or not (the
// connection's watcher takes the cancellable parent's context without
// allocating), and an evicting store keeps the stored body at the far
// end and decodes its receipt at the near one.  A pass-down is that store
// with the ring's placement and the directory around it.  Dropping the
// idle connections ends the watcher.
func TestHopAllocsPerRun(t *testing.T) {
	const size, slots, runs = 8 << 10, 4, 200
	cc := NewClientCacheOpts(Options{CapacityBytes: slots * size})
	srv := httptest.NewServer(cc.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(cc.Close)
	addr := strings.TrimPrefix(srv.URL, "http://")
	px := newProxy(t, Options{CapacityBytes: 1 << 20})
	t.Cleanup(px.CloseIdleConnections)
	to := px.ring.add(addr)

	// objs are 8 KiB objects never stored before, one for each store
	// AllocsPerRun makes (runs, and one to warm up) in each case.
	next := 0
	objs := make([]store.Object, 2*(runs+1)+slots)
	for i := range objs {
		u := fmt.Sprintf("http://origin.test/alloc/%d", i)
		objs[i] = store.Object{HexKey: keyOf(u).String(), Body: sizedBody(u, size), Cost: 1}
	}
	take := func() store.Object { next++; return objs[next-1] }
	for range slots { // fill the daemon, so every store below evicts
		if _, ok, err := px.storeAt(to, take(), false); !ok || err != nil {
			t.Fatalf("fill store = (%v, %v)", ok, err)
		}
	}
	if to.free.Load() != 0 {
		t.Fatalf("headroom %d after the fill, want 0", to.free.Load())
	}

	lan := keyOf("http://origin.test/alloc/0")
	if _, ok := cc.store.Get(fold(lan)); !ok {
		t.Fatal("the LAN fetch's object is not at the daemon")
	}
	requester, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	before := watchers() // other tests' proxies may leave theirs running
	for _, tc := range []struct {
		name string
		max  float64
		hop  func()
	}{
		{"lan-fetch-8KiB", 3, func() {
			if body, ok := px.lanFetch(context.Background(), to, lan, ""); !ok || len(body) != size {
				t.Fatalf("LAN fetch = (%d bytes, %v)", len(body), ok)
			}
		}},
		{"lan-fetch-8KiB-cancellable-parent", 2, func() {
			if body, ok := px.lanFetch(requester, to, lan, ""); !ok || len(body) != size {
				t.Fatalf("LAN fetch = (%d bytes, %v)", len(body), ok)
			}
		}},
		{"evicting-store", 12, func() {
			if _, ok, err := px.storeAt(to, take(), false); !ok || err != nil {
				t.Fatalf("store = (%v, %v)", ok, err)
			}
		}},
		{"evicting-pass-down", 12, func() {
			px.passDown(take())
		}},
	} {
		allocs := testing.AllocsPerRun(runs, tc.hop)
		t.Logf("%s: %.1f allocations per hop", tc.name, allocs)
		if allocs > tc.max {
			t.Errorf("%s allocates %.1f objects per hop, both ends, want at most %.0f", tc.name, allocs, tc.max)
		}
	}
	if st := px.snapshotStats(); st.PassDowns != runs+1 || st.StoreRefusals != 0 {
		t.Errorf("pass-downs %d, refusals %d: want %d forced stores and no trial", st.PassDowns, st.StoreRefusals, runs+1)
	}
	if n := watchers() - before; n != 1 {
		t.Fatalf("%d connection watchers started by the cancellable fetches on one connection, want 1", n)
	}
	px.CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); watchers() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d connection watchers left after CloseIdleConnections", watchers()-before)
		}
	}
}

// TestDigestPublishAllocs holds a /digest publish at live_cascade's
// size, 1 100 stored and 3 300 listed keys, to a copy of the summary's
// words: the body and nothing per key.  Rebuilding the filter on every
// pull made about 5 allocations, some 100 KB.
func TestDigestPublishAllocs(t *testing.T) {
	const stored, listed = 1100, 3300
	px := newProxy(t, Options{CapacityBytes: 1 << 20})
	for i := range stored {
		u := fmt.Sprintf("http://origin.test/stored/%d", i)
		if _, ok, err := px.store.Put(fold(keyOf(u)), store.Object{HexKey: keyOf(u).String(), Body: []byte("body"), Cost: 1}); !ok || err != nil {
			t.Fatalf("store %s = (%v, %v)", u, ok, err)
		}
	}
	px.mu.Lock()
	for i := range listed {
		px.list(fold(keyOf(fmt.Sprintf("http://origin.test/listed/%d", i))), 0)
	}
	px.mu.Unlock()
	w := &discardWriter{h: make(http.Header, 4)}
	req := httptest.NewRequest("GET", "/digest", nil)
	allocs := testing.AllocsPerRun(200, func() { px.handleDigest(w, req) })
	if allocs > 2 {
		t.Errorf("a /digest publish allocates %.1f objects, want at most 2", allocs)
	}
	if px.summary.Full() {
		t.Error("the summary is still full after a publish grew it")
	}
}

// TestDecimalValueZeroAlloc holds the header-value memo to its point on
// live_cascade's mix: once each value has been formatted, an 8 KiB
// object's Content-Length and a full cache's headroom, 0, interleaved
// with other sizes, cost nothing.
func TestDecimalValueZeroAlloc(t *testing.T) {
	values := []int{0, 8 << 10, 512, 0, 16 << 10, 8 << 10, 4 << 10, 0}
	want := make([]string, len(values))
	for i, n := range values {
		want[i] = strconv.Itoa(n)
		decimalValue(n)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for i, n := range values {
			if v := decimalValue(n); v[0] != want[i] {
				t.Fatalf("decimalValue(%d) = %q", n, v[0])
			}
		}
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per round of %d memoized values, want 0", allocs, len(values))
	}
}

// TestOriginFetchAllocs counts what one origin GET allocates, both ends
// together, against an origin that declares its 8 KiB body as the load
// generator's does: at the proxy the body it keeps and the URL, 2 of the
// 20 (the reply head is parsed in the connection's buffer, and no
// http.Response is built); at the origin net/http's server, the other 18.
// When net/http's parser read the head, the same GET allocated 30.
func TestOriginFetchAllocs(t *testing.T) {
	const size = 8 << 10
	body, length := sizedBody("/origin", size), []string{strconv.Itoa(size)}
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header()["Content-Length"] = length
		w.Write(body)
	}))
	t.Cleanup(origin.Close)
	px := newProxy(t, Options{CapacityBytes: 1 << 20})
	t.Cleanup(px.CloseIdleConnections)
	u := origin.URL + "/objects/0001"
	allocs := testing.AllocsPerRun(200, func() {
		if got, err := px.originFetch(u); err != nil || len(got) != size {
			t.Fatalf("origin fetch = (%d bytes, %v)", len(got), err)
		}
	})
	t.Logf("%.1f allocations per origin GET, both ends", allocs)
	if allocs > 20 {
		t.Errorf("an 8 KiB origin GET allocates %.1f objects, both ends, want at most 20", allocs)
	}
}

// TestTransportAllocs counts what one GET through the Transport
// allocates, both ends together, against a server that declares its
// 8 KiB body as a proxy's /fetch does: at the client only the reply RoundTrip
// hands back, 5 of the 23 (the head's string, the http.Response, and its
// Header's map, map group and value slice); at the server net/http's
// server, the other 18.  The request is built once, as a caller that
// reuses it would.  When net/http's parser read the head the same GET
// allocated 28, and through the tuned *http.Transport before that, 61.
func TestTransportAllocs(t *testing.T) {
	const size = 8 << 10
	body, length := sizedBody("/object", size), []string{strconv.Itoa(size)}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header()["Content-Length"] = length
		w.Write(body)
	}))
	t.Cleanup(srv.Close)
	tr := NewTransport()
	t.Cleanup(tr.CloseIdleConnections)
	req, err := http.NewRequest("GET", srv.URL+"/fetch?url=x", nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		resp, err := tr.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || n != size {
			t.Fatalf("GET = (%d bytes, %v)", n, err)
		}
	})
	t.Logf("%.1f allocations per GET, both ends", allocs)
	if allocs > 23 {
		t.Errorf("an 8 KiB GET through the transport allocates %.1f objects, both ends, want at most 23", allocs)
	}
}
