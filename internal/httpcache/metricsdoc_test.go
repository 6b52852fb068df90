package httpcache

import (
	"net/http/httptest"
	"os"
	"testing"

	"webcache/internal/obs"
	"webcache/internal/wiretest"
)

// TestMetricsDocHTTPCache holds the httpcache.* namespace in
// METRICS.md against what the daemons' /metrics endpoints register,
// in both directions.  publishStats writes the full gauge set on
// every scrape, so one scrape of each daemon exercises every name.
func TestMetricsDocHTTPCache(t *testing.T) {
	md, err := os.ReadFile("../../METRICS.md")
	if err != nil {
		t.Fatal(err)
	}

	preg := obs.NewRegistry("doc-smoke-proxy")
	px := newProxy(t, Options{CapacityBytes: 1 << 20, Metrics: preg})
	creg := obs.NewRegistry("doc-smoke-cache")
	cc := NewClientCacheOpts(Options{CapacityBytes: 1 << 20, Metrics: creg})

	for _, h := range []struct {
		srv *httptest.Server
	}{
		{httptest.NewServer(wiretest.StrictFraming(t, px.Handler()))},
		{httptest.NewServer(wiretest.StrictFraming(t, cc.Handler()))},
	} {
		defer h.srv.Close()
		resp, err := h.srv.Client().Get(h.srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET /metrics: %s", resp.Status)
		}
	}

	var names []string
	for _, m := range preg.Snapshot() {
		names = append(names, m.Name)
	}
	for _, m := range creg.Snapshot() {
		names = append(names, m.Name)
	}
	if err := obs.CheckMetricsDoc(md, names, "httpcache"); err != nil {
		t.Fatal(err)
	}
}
