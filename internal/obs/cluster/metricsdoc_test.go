package cluster

import (
	"context"
	"os"
	"testing"
	"time"

	"webcache/internal/obs"
)

// TestMetricsDocCluster holds the cluster.* namespace in METRICS.md
// against the names one aggregator scrape registers in its merged
// registry, in both directions.
func TestMetricsDocCluster(t *testing.T) {
	md, err := os.ReadFile("../../../METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	reg := memberRegistry("a", 100, 20, 5, []time.Duration{time.Millisecond})
	srv := fakeMember(t, reg)
	agg := New([]Member{{Name: "a", URL: srv.URL}}, Options{})
	snap := agg.ScrapeOnce(context.Background())

	var names []string
	for _, m := range snap.Registry().Snapshot() {
		names = append(names, m.Name)
	}
	if err := obs.CheckMetricsDoc(md, names, "cluster"); err != nil {
		t.Fatal(err)
	}
}
