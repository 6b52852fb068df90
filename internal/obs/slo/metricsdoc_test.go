package slo

import (
	"os"
	"testing"
	"time"

	"webcache/internal/obs"
)

// TestMetricsDocSLO holds the slo.* namespace in METRICS.md against
// the names one tracker registers, in both directions: an undocumented
// registration or a documented-but-dead name fails here instead of
// rotting quietly.
func TestMetricsDocSLO(t *testing.T) {
	md, err := os.ReadFile("../../../METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry("doc-smoke")
	tr := NewTracker(reg, []Class{
		{Name: "interactive", Latency: 50 * time.Millisecond, Availability: 0.99, Window: time.Minute},
	})
	tr.Observe("interactive", 10*time.Millisecond, false)
	tr.Observe("interactive", 200*time.Millisecond, false)
	tr.Report()

	var names []string
	for _, m := range reg.Snapshot() {
		names = append(names, m.Name)
	}
	if err := obs.CheckMetricsDoc(md, names, "slo"); err != nil {
		t.Fatal(err)
	}
}
