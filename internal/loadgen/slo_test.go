package loadgen

import (
	"context"
	"io"
	"math"
	"net/http"
	"testing"
	"time"

	"webcache/internal/obs/slo"
	"webcache/internal/prowgen"
	"webcache/internal/trace"
)

// TestClassTaggedRun drives a small loopback run with two SLO classes
// and checks the whole tagging loop: the per-member registries the
// proxies publish their server-side slo.* gauges to, and that the
// server-side ledgers count exactly the requests the driver issued.
func TestClassTaggedRun(t *testing.T) {
	tr, err := prowgen.Generate(prowgen.Config{
		NumRequests: 600,
		NumObjects:  80,
		NumClients:  12,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	classes := []slo.Class{
		{Name: "interactive", Latency: 5 * time.Second, Availability: 0.99, Window: time.Minute},
		{Name: "batch", Latency: 5 * time.Second, Availability: 0.9, Window: time.Minute},
	}
	topo, err := StartLoopback(strictly(t, TopologyConfig{
		Proxies:            2,
		CachesPerProxy:     1,
		ProxyCapacityBytes: []uint64{4096},
		CacheCapacityBytes: []uint64{4096},
		ObjectBytes:        64,
		MetricsPerDaemon:   true,
		SLOClasses:         classes,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Stop()
	if len(topo.ProxyMetrics) != 2 {
		t.Fatalf("per-daemon registries = %d", len(topo.ProxyMetrics))
	}

	sched, err := BuildSchedule(tr, topo.ProxyURLs, topo.OriginURL,
		func(c trace.ClientID) int { return int(c) % 2 })
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), sched, NewHTTPTarget(), Options{
		Mode:    ClosedLoop,
		Workers: 4,
		ClassFor: func(r ScheduledRequest) string {
			if r.Client%3 == 0 {
				return "batch"
			}
			return "interactive"
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 {
		t.Fatalf("%d errors", res.Errors)
	}

	// Server-side: the per-member registries hold every tagged request —
	// summed across members, the slo ledgers must equal the driver's count.
	total := res.Measured + res.Errors
	// A /metrics scrape refreshes each member's slo.* gauges first
	// (publishStats calls the tracker's Report).
	for _, u := range topo.ProxyURLs {
		resp, err := http.Get(u + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	var serverTotal float64
	for _, reg := range topo.ProxyMetrics {
		vals := reg.Values()
		serverTotal += vals["slo.interactive.good"] + vals["slo.interactive.bad"] +
			vals["slo.batch.good"] + vals["slo.batch.bad"]
	}
	if math.Abs(serverTotal-float64(total)) > 1e-9 {
		t.Fatalf("server-side slo total %v != driver total %d", serverTotal, total)
	}

}
