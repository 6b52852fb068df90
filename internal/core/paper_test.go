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

// TestResultsCurrent recomputes, from the code under test, the points
// that decide the claims in results/scale-0.2.json: Figures 2(a) and
// 2(b) at the 10 % and 20 % caches, five replicates from seed 1, as
// `make paper` runs them.  They must be bit-identical to the committed
// JSON, so a change that moves a result cannot leave stale verdicts in
// results/figures.md.
func TestResultsCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("five replicates of two figures")
	}
	f, err := os.Open("../../results/scale-0.2.json")
	if err != nil {
		t.Fatal(err)
	}
	figs, err := ReadJSON(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"2a", "2b"} {
		i := slices.IndexFunc(figs, func(f *Figure) bool { return f.ID == id })
		if i < 0 {
			t.Fatalf("results/scale-0.2.json has no figure %s", id)
		}
		got, err := RunFigureReplicated(id, Options{Scale: 0.2, Seed: 1, Fracs: DefaultFracs()[:2]}, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Series) != len(figs[i].Series) {
			t.Fatalf("figure %s: %d series recomputed, %d committed", id, len(got.Series), len(figs[i].Series))
		}
		for _, s := range got.Series {
			want, ok := figs[i].SeriesByLabel(s.Label)
			if !ok || len(want.Points) < len(s.Points) {
				t.Fatalf("figure %s: committed series %q missing or short", id, s.Label)
			}
			for j, p := range s.Points {
				if p != want.Points[j] {
					t.Errorf("figure %s %s at %.0f%%: recomputed %+v, committed %+v (make paper)", id, s.Label, p.CacheFrac*100, p, want.Points[j])
				}
			}
		}
	}
}
