//go:build !race

package httpcache

// Zero-alloc gate on the live proxy's memory-hit path: once an object
// sits in the memory store, serving it must not touch the heap.  The
// pieces that make this hold are queryParam (no url.Values per
// request), pastry.HashString (no []byte copy of the URL), the
// preallocated servedBy header slices, and the store's Get (see
// hotpath.go and DESIGN.md §13).
//
// Excluded under the race detector (make check), whose instrumentation
// allocates on paths the production build does not.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"webcache/internal/store"
)

// discardWriter is a reusable ResponseWriter: a preallocated header
// map and a body sink, so the gate measures the handler, not the
// recorder.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

func TestFetchHitPathAllocs(t *testing.T) {
	p := newProxy(t, Options{CapacityBytes: 1 << 20})
	const url = "http://origin.example.com/objects/alloc-gate-object-0001"
	id := keyOf(url)
	body := bytes.Repeat([]byte("x"), 4096)
	if _, _, err := p.store.Put(fold(id), store.Object{HexKey: id.String(), Body: body, Cost: 1}); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/fetch?url="+url, nil)
	w := &discardWriter{h: make(http.Header, 4)}
	p.handleFetch(w, req)
	if got := w.h.Get(ServedByHeader); got != TierProxy {
		t.Fatalf("warmup request served by %q, want %q (gate must measure the memory-hit path)", got, TierProxy)
	}
	allocs := testing.AllocsPerRun(2000, func() { p.handleFetch(w, req) })
	if allocs != 0 {
		t.Errorf("proxy memory-hit path allocates %.1f objects/request, want 0", allocs)
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
