package loadgen

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestStartLoopbackRefusedRegistration: a proxy that refuses a client
// cache's /register (413, as for a recovered list over the body cap)
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
					http.Error(w, "registration body too large", http.StatusRequestEntityTooLarge)
					return
				}
				h.ServeHTTP(w, r)
			})
		},
	})
	if err == nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		topo.Close(ctx)
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
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			res.topo.Close(ctx)
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
