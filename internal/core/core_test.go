package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// tinyOpts keeps figure runs fast: a few percent of the paper's
// workload and a coarse sweep.
func tinyOpts() Options {
	return Options{
		Scale: 0.05,
		Fracs: []float64{0.1, 0.5, 0.9},
		Seed:  1,
	}
}

// figurePins are SHA-256 digests of each figure's JSON under
// TestFigureIDsAllRunnable's options.  A refactor of the sweep, the
// figure definitions or the simulator that moves any point changes a
// pin; a deliberate model change re-pins them here.
var figurePins = map[string]string{
	"2a": "cb6979a24046a0ed0ba6cbedee4ea8609b94a138bdb1f081118ce3a3047f56e7",
	"2b": "c42b653d104730832d4ddf1e974452ab45cd5ddfa7806020548a27f37a09ee9a",
	"3":  "17ca08c34a6d97d9d809e749bafd4d3c496a39df1a9deeb3b6b3e4ed220385b2",
	"4":  "6c9316e8b42e0d87d250ca13c97cc31f80319c9d34be5d9a6466226142f6bdd5",
	"5a": "37c7471615f5edb9cc3e956eb051663b686e7cf4cabf8eb4b5b70cddce41d7db",
	"5b": "0bf8f7ee7c1ece070022177d5def199a638d9fcd5072c2ac3a625382dd2a513c",
	"5c": "efa653cfae8a5aaed39a6f4ae81431177ac00c6d5594badbc1712217de6f5aee",
	"5d": "90f11ca0cccf3bb976c89a0cddcb573acf99ab07cfbaba7e8723b4bcaccd1694",
}

func TestFigureIDsAllRunnable(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweeps are slow")
	}
	for _, id := range FigureIDs() {
		id := id
		t.Run("fig"+id, func(t *testing.T) {
			t.Parallel()
			opts := tinyOpts()
			if id == "3" || id == "4" || id == "5c" {
				opts.Fracs = []float64{0.1, 0.9} // 12+ series: keep it quick
			}
			f, err := RunFigure(id, opts)
			if err != nil {
				t.Fatal(err)
			}
			if f.ID != id || len(f.Series) == 0 {
				t.Fatalf("figure %q malformed: %+v", id, f)
			}
			for _, s := range f.Series {
				if len(s.Points) != len(opts.Fracs) {
					t.Errorf("series %q has %d points, want %d", s.Label, len(s.Points), len(opts.Fracs))
				}
				for _, p := range s.Points {
					if p.NCLatency <= 0 || p.AvgLatency <= 0 {
						t.Errorf("series %q: bad latencies %+v", s.Label, p)
					}
					if p.Gain < -0.2 || p.Gain > 1 {
						t.Errorf("series %q: gain %g out of range", s.Label, p.Gain)
					}
				}
			}
			blob, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			if got := hex.EncodeToString(sum[:]); got != figurePins[id] {
				t.Errorf("figure %s digest = %s, want %s", id, got, figurePins[id])
			}
		})
	}
}

// TestRunFigureUnknown: an unknown figure, a negative scale and a NaN
// scale are errors, never a table drawn from the trace generator's
// floors.
func TestRunFigureUnknown(t *testing.T) {
	for _, c := range []struct {
		id    string
		scale float64
	}{{"99z", 0.05}, {"2a", -1}, {"5d", math.NaN()}} {
		opts := tinyOpts()
		opts.Scale = c.scale
		if _, err := RunFigure(c.id, opts); err == nil {
			t.Errorf("RunFigure(%q) at scale %g accepted", c.id, c.scale)
		}
		if _, err := RunFigureReplicated(c.id, opts, 2); err == nil {
			t.Errorf("RunFigureReplicated(%q) at scale %g accepted", c.id, c.scale)
		}
	}
}

func TestFig2aShape(t *testing.T) {
	f, err := RunFigure("2a", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Paper shape checks at the smallest cache size: EC schemes beat
	// their plain counterparts; FC-EC bounds everything.
	get := func(label string) float64 {
		s, ok := f.SeriesByLabel(label)
		if !ok {
			t.Fatalf("missing series %q", label)
		}
		g, ok := s.GainAt(0.1)
		if !ok {
			t.Fatalf("series %q missing 10%% point", label)
		}
		return g
	}
	sc, scec := get("SC"), get("SC-EC")
	fc, fcec := get("FC"), get("FC-EC")
	hg, ncec := get("Hier-GD"), get("NC-EC")
	if scec <= sc {
		t.Errorf("SC-EC (%.3f) <= SC (%.3f) at 10%%", scec, sc)
	}
	if fcec < fc {
		t.Errorf("FC-EC (%.3f) < FC (%.3f) at 10%%", fcec, fc)
	}
	for name, g := range map[string]float64{"SC": sc, "SC-EC": scec, "FC": fc, "Hier-GD": hg, "NC-EC": ncec} {
		if g > fcec+1e-9 {
			t.Errorf("%s (%.3f) above FC-EC upper bound (%.3f)", name, g, fcec)
		}
		if g <= 0 {
			t.Errorf("%s gain %.3f not positive at 10%%", name, g)
		}
	}
	if hg <= sc {
		t.Errorf("Hier-GD (%.3f) <= SC (%.3f) at 10%%", hg, sc)
	}
}

func TestFormatTable(t *testing.T) {
	f := &Figure{
		ID: "x", Title: "test",
		Series: []Series{
			{Label: "A", Points: []Point{{CacheFrac: 0.1, Gain: 0.5}, {CacheFrac: 0.2, Gain: 0.25}}},
			{Label: "B", Points: []Point{{CacheFrac: 0.1, Gain: 0.75}}},
		},
	}
	out := FormatTable(f)
	for _, want := range []string{"Figure x", "cache%", "A", "B", "50.0", "75.0", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	md := FormatMarkdown(f)
	for _, want := range []string{"| cache% |", "| A |", "|---|", "| 50.0 |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestDefaultFracs(t *testing.T) {
	fr := DefaultFracs()
	if len(fr) != 10 || fr[0] != 0.1 || fr[9] != 1.0 {
		t.Errorf("default fracs = %v", fr)
	}
}

func TestSeriesHelpers(t *testing.T) {
	f := &Figure{Series: []Series{{Label: "A", Points: []Point{{CacheFrac: 0.3, Gain: 0.1}}}}}
	if _, ok := f.SeriesByLabel("missing"); ok {
		t.Error("found missing series")
	}
	s, ok := f.SeriesByLabel("A")
	if !ok {
		t.Fatal("missing series A")
	}
	if _, ok := s.GainAt(0.5); ok {
		t.Error("found missing point")
	}
	if g, ok := s.GainAt(0.3); !ok || g != 0.1 {
		t.Errorf("GainAt = %v %v", g, ok)
	}
}

func TestPaperTraceScalesFloors(t *testing.T) {
	tr, err := paperTrace(0.001, 1, 0.7, 0.2, 0) // tiny scale hits the floors
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumObjects < 200 {
		t.Errorf("objects %d below floor", tr.NumObjects)
	}
	if tr.Len() < 20*tr.NumObjects {
		t.Errorf("requests %d below floor", tr.Len())
	}
}
