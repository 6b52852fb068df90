package store

import (
	"os"
	"testing"

	"webcache/internal/obs"
)

// TestMetricsDocStore holds the store.* namespace in METRICS.md
// against what the store registers, in both directions.  Config.Metrics
// creates the live instruments, one GetOrLoad exercises the counters,
// and PublishMetrics writes the occupancy gauges.
func TestMetricsDocStore(t *testing.T) {
	md, err := os.ReadFile("../../METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry("doc-smoke-store")
	s := mustNew(t, Config{CapacityBytes: 1 << 20, Metrics: reg})
	if _, err := s.GetOrLoad(1, func() (Object, string, error) {
		return Object{HexKey: "01", Body: body(8), Cost: 1}, "origin", nil
	}); err != nil {
		t.Fatal(err)
	}
	s.PublishMetrics()

	var names []string
	for _, m := range reg.Snapshot() {
		names = append(names, m.Name)
	}
	if err := obs.CheckMetricsDoc(md, names, "store"); err != nil {
		t.Fatal(err)
	}
}
