package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"webcache/internal/httpcache"
	"webcache/internal/loadgen"
	"webcache/internal/obs/cluster"
	"webcache/internal/obs/slo"
)

// The dashboard must render live cluster state from real members: a
// two-proxy loopback mesh with per-member registries and SLO trackers
// is driven over HTTP, scraped twice through the same aggregator
// `hiergdd top` uses, and the rendered frame must carry both members
// as up, the cluster hit line, and the SLO class row.  Each member's
// object count is its store.objects gauge.
func TestTopDashboardFromLiveMesh(t *testing.T) {
	topo, err := loadgen.StartLoopback(loadgen.TopologyConfig{
		Proxies:            2,
		CachesPerProxy:     1,
		ProxyCapacityBytes: []uint64{8192},
		CacheCapacityBytes: []uint64{8192},
		ObjectBytes:        64,
		MetricsPerDaemon:   true,
		SLOClasses: []slo.Class{
			{Name: "interactive", Latency: time.Second, Availability: 0.99, Window: time.Minute},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Stop()

	fetch := func(p int, path string) {
		t.Helper()
		u := fmt.Sprintf("%s/fetch?url=%s", topo.ProxyURLs[p], url.QueryEscape(topo.OriginURL+path))
		req, _ := http.NewRequest("GET", u, nil)
		req.Header.Set(httpcache.SLOHeader, "interactive")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	members := []cluster.Member{
		{Name: "alpha", URL: topo.ProxyURLs[0]},
		{Name: "beta", URL: topo.ProxyURLs[1]},
	}
	agg := cluster.New(members)

	for i := 0; i < 6; i++ {
		fetch(i%2, fmt.Sprintf("/warm-%d", i%3))
	}
	prev := agg.ScrapeOnce(context.Background())
	for i := 0; i < 8; i++ {
		fetch(i%2, fmt.Sprintf("/warm-%d", i%3))
	}
	cur := agg.ScrapeOnce(context.Background())

	frame := renderDashboard(prev, cur)
	for _, want := range []string{
		"2/2 members up",
		"alpha", "beta",
		"cluster:",
		"hit ratio",
		"interactive",
		"burn.fast",
	} {
		if !strings.Contains(frame, want) {
			t.Fatalf("dashboard frame missing %q:\n%s", want, frame)
		}
	}
	// Both members took traffic, so both rows render as up with a
	// non-zero request count, and the second frame's throughput column
	// is populated from the delta against the first.
	for _, m := range cur.Members {
		if !m.Up || m.Requests == 0 {
			t.Fatalf("member %s not up with traffic in the scrape: %+v", m.Name, m)
		}
	}
	if cur.Requests <= prev.Requests {
		t.Fatalf("cluster requests did not advance between frames: %v -> %v",
			prev.Requests, cur.Requests)
	}
	for i, m := range cur.Members {
		gauge := topo.ProxyMetrics[i].Values()["store.objects"]
		if m.Objects != gauge || m.Objects <= 0 {
			t.Errorf("member %s: objects %v, want its store.objects gauge %v and > 0", m.Name, m.Objects, gauge)
		}
	}
}
