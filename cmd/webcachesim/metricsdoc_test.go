package main

import (
	"os"
	"testing"

	"webcache/internal/obs"
)

// TestMetricsDocFigureNamespace holds the figure.* namespace in
// METRICS.md against what one CLI figure run registers: the
// `figure.<id>` timer family, and nothing else.
func TestMetricsDocFigureNamespace(t *testing.T) {
	md, err := os.ReadFile("../../METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	sess := startSession(t)
	treg := obs.NewRegistry("doc-smoke")
	if err := runFigure("5a", sess, treg, false, figureParams{scale: 0.02, seed: 1, replicates: 1}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range treg.Snapshot() {
		names = append(names, m.Name)
	}
	if len(names) == 0 {
		t.Fatal("figure run registered nothing")
	}
	if err := obs.CheckMetricsDoc(md, names, "figure"); err != nil {
		t.Fatal(err)
	}
}
