package loadgen

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"webcache/internal/httpcache"
	"webcache/internal/obs"
)

// TestStartLoopbackRefusedRegistration: a proxy that refuses a client
// cache's /register (400, as for an addr that is not host:port)
// fails the stand-up, instead of a topology whose proxies have no
// client caches on their rings.
func TestStartLoopbackRefusedRegistration(t *testing.T) {
	topo, err := StartLoopback(TopologyConfig{
		Proxies:            1,
		CachesPerProxy:     1,
		ProxyCapacityBytes: []uint64{1 << 16},
		CacheCapacityBytes: []uint64{1 << 16},
		ObjectBytes:        64,
		WrapProxy: func(_ int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/register" {
					http.Error(w, "addr must be host:port", http.StatusBadRequest)
					return
				}
				h.ServeHTTP(w, r)
			})
		},
	})
	if err == nil {
		topo.Stop()
		t.Fatal("topology came up although the proxy refused its client cache's registration")
	}
}

// TestStartLoopbackReadyzHangs: a client cache whose /readyz never
// answers fails the stand-up within waitReady's bound, naming /readyz,
// instead of blocking forever on a probe without a deadline.
func TestStartLoopbackReadyzHangs(t *testing.T) {
	type result struct {
		topo *Topology
		err  error
	}
	done := make(chan result, 1)
	start := time.Now()
	go func() {
		topo, err := StartLoopback(TopologyConfig{
			Proxies:            1,
			CachesPerProxy:     1,
			ProxyCapacityBytes: []uint64{1 << 16},
			CacheCapacityBytes: []uint64{1 << 16},
			ObjectBytes:        64,
			WrapCache: func(_, _ int, h http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path == "/readyz" {
						<-r.Context().Done() // never answers; released when the prober hangs up
						return
					}
					h.ServeHTTP(w, r)
				})
			},
		})
		done <- result{topo, err}
	}()
	select {
	case res := <-done:
		if res.err == nil {
			res.topo.Stop()
			t.Fatal("topology came up although a client cache never answered /readyz")
		}
		if !strings.Contains(res.err.Error(), "/readyz") {
			t.Errorf("error %q does not name /readyz", res.err)
		}
		if took := time.Since(start); took > 7*time.Second {
			t.Errorf("StartLoopback failed after %s, want within 7s", took)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("StartLoopback still blocked after 10s on a /readyz that never answers")
	}
}

// The handler wrappers are the seam chaos faults and the bench's spans
// hook, and the member-to-member hops reach them as frames: a pass-down's
// /store at a client cache, and a cooperating proxy's /peer-lookup with
// the /object it relays, each carrying the trace id of the /fetch that
// caused it.  A hop that went around the wrappers would disarm the chaos
// suite and empty the traced spans without failing anything else.
func TestWrappersSeeFramedHops(t *testing.T) {
	type call struct{ daemon, path, proto, trace string }
	var mu sync.Mutex
	var calls []call
	seen := func(daemon string, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			calls = append(calls, call{daemon, r.URL.Path, r.Proto, r.Header.Get(httpcache.TraceHeader)})
			mu.Unlock()
			h.ServeHTTP(w, r)
		})
	}
	const objectBytes = 100
	topo, err := StartLoopback(TopologyConfig{
		Proxies:            2,
		CachesPerProxy:     2,
		ProxyCapacityBytes: []uint64{3 * objectBytes},
		CacheCapacityBytes: []uint64{1 << 16},
		ObjectBytes:        objectBytes,
		// Join-only, as the bench's: ids are forwarded, never started.
		Tracer:    obs.NewTracer(obs.TracerOptions{Origin: "seam", SampleEvery: obs.SampleNever, Clock: obs.ClockWall}),
		WrapProxy: func(_ int, h http.Handler) http.Handler { return seen("proxy", h) },
		WrapCache: func(_, _ int, h http.Handler) http.Handler { return seen("cache", h) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Stop()
	fetch := func(p int, path, traceID string) {
		t.Helper()
		req, err := http.NewRequest("GET", topo.ProxyURLs[p]+"/fetch?url="+url.QueryEscape(topo.OriginURL+path), nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(httpcache.TraceHeader, traceID)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fetch %s at proxy %d: status %d", path, p, resp.StatusCode)
		}
	}
	// Proxy 0 holds three objects: the first three are passed down.
	for i := range 6 {
		fetch(0, fmt.Sprintf("/o%d", i), fmt.Sprintf("fill-%d", i))
	}
	// Proxy 1 holds no digest of proxy 0 yet, so it asks; proxy 0 finds
	// /o0 in its directory and relays it from its client cache.
	fetch(1, "/o0", "relayed")

	mu.Lock()
	defer mu.Unlock()
	want := map[call]bool{
		{"cache", "/store", httpcache.FrameProtocol, ""}:              false,
		{"proxy", "/peer-lookup", httpcache.FrameProtocol, "relayed"}: false,
		{"cache", "/object", httpcache.FrameProtocol, "relayed"}:      false,
	}
	for _, c := range calls {
		if _, ok := want[c]; ok {
			want[c] = true
		}
		switch c.path {
		case "/store", "/object", "/peer-lookup", "/digest":
			if c.proto != httpcache.FrameProtocol {
				t.Errorf("%s %s reached the wrapper over %s, not a frame", c.daemon, c.path, c.proto)
			}
		}
	}
	for c, ok := range want {
		if !ok {
			t.Errorf("the %s wrapper never saw a framed %s with trace id %q", c.daemon, c.path, c.trace)
		}
	}
}

// The loopback origin writes its body in pieces; the bytes are the ones
// the old rendering built whole, ("origin:"+path+":"+pad)[:size], at an
// object size of 512 B and of 8 KiB, and at two sizes shorter than the
// "origin:<path>:" prefix.
func TestOriginBodyMatchesOldRendering(t *testing.T) {
	const path = "/obj/1234567"
	for _, size := range []int{512, 8 << 10, 3, len("origin:" + path)} {
		rec := httptest.NewRecorder()
		origin(size).ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		want := ("origin:" + path + ":" + strings.Repeat("x", size))[:size]
		if got := rec.Body.String(); got != want {
			t.Errorf("size %d: served %q, want %q", size, got, want)
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(size) {
			t.Errorf("size %d: Content-Length %q", size, got)
		}
	}
}
