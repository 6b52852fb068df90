package main

import (
	"os"
	"testing"

	"webcache/internal/obs"
)

// TestMetricsDocOverlay holds the overlay.* namespace in METRICS.md
// against what one CLI run registers, both directions.
func TestMetricsDocOverlay(t *testing.T) {
	md, err := os.ReadFile("../../METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := run([]string{
		"-nodes", "48", "-routes", "200", "-b", "2",
		"-fail", "0.2", "-stabilize", "-proximity", "-metrics",
	})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range reg.Snapshot() {
		names = append(names, m.Name)
	}
	if len(names) == 0 {
		t.Fatal("overlay run registered nothing")
	}
	if err := obs.CheckMetricsDoc(md, names, "overlay"); err != nil {
		t.Fatal(err)
	}
}

// TestRunManifest checks the refactored run() still writes a valid
// manifest and fails verification errors through the error return.
func TestRunManifest(t *testing.T) {
	path := t.TempDir() + "/overlay.json"
	reg, err := run([]string{"-nodes", "32", "-routes", "100", "-verify", "-manifest", path})
	if err != nil {
		t.Fatal(err)
	}
	if !reg.Enabled() {
		t.Fatal("-manifest did not enable the registry")
	}
	m, err := obs.ReadManifestFile(path)
	if err != nil {
		t.Fatalf("manifest failed validation: %v", err)
	}
	if m.Tool != "overlay" {
		t.Fatalf("tool = %q", m.Tool)
	}
	if m.Metrics["overlay.nodes"] != 32 {
		t.Fatalf("overlay.nodes = %v", m.Metrics["overlay.nodes"])
	}
}
