package loadgen

import (
	"context"
	"net/http"
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
