package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"webcache/internal/obs"
)

var update = flag.Bool("update", false, "rewrite results/figures.md from results/*.json (make paper)")

// TestPaperGolden renders results/figures.md from the committed runs
// (results/scale-*.json and their manifests) through Claims and fails
// on any difference, so the file states only what the JSON holds.
// `make paper` reruns the sweeps and then this test with -update.
func TestPaperGolden(t *testing.T) {
	const dir = "../../results"
	manifests, err := filepath.Glob(filepath.Join(dir, "scale-*.manifest.json"))
	if err != nil || len(manifests) == 0 {
		t.Fatalf("no runs in %s (%v)", dir, err)
	}
	// The paper's scale first: scale-1.0 sorts after scale-0.2.
	slices.Reverse(manifests)
	var runs []PaperRun
	for _, path := range manifests {
		m, err := obs.ReadManifestFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(strings.TrimSuffix(path, ".manifest.json") + ".json")
		if err != nil {
			t.Fatal(err)
		}
		figs, err := ReadJSON(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, PaperRun{Figures: figs, Manifest: m})
	}
	var got bytes.Buffer
	if err := WritePaper(&got, runs); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join(dir, "figures.md")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%s differs from its rendering of the runs beside it: make paper regenerates both, -update rewrites it", golden)
	}
}
