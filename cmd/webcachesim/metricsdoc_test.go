package main

import (
	"os"
	"testing"

	"webcache"
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
	if _, err := runFigure("5a", webcache.FigureOptions{Scale: 0.02, Seed: 1}, 1, false, sess, treg, false); err != nil {
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
