package core

import (
	"sync"
	"testing"
)

// The replicates' sweeps report progress as one count: every job once,
// against the total of all of them.
func TestRunFigureReplicated(t *testing.T) {
	opts := Options{Scale: 0.03, Fracs: []float64{0.2}, Seed: 1}
	var mu sync.Mutex
	var calls, lastDone, total int
	opts.Progress = func(done, tot int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		lastDone, total = max(lastDone, done), tot
	}
	fig, err := RunFigureReplicated("5a", opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 || calls != total || lastDone != total || total%3 != 0 {
		t.Errorf("progress: %d calls, last done %d of %d; want one call per job of 3 replicates, ending at the total",
			calls, lastDone, total)
	}
	for _, s := range fig.Series {
		for _, p := range s.Points {
			if p.GainCI <= 0 {
				t.Errorf("series %q: zero CI with 3 replicates (gain %.3f)", s.Label, p.Gain)
			}
			if p.GainCI > 0.5 {
				t.Errorf("series %q: CI %.3f implausibly wide", s.Label, p.GainCI)
			}
			if p.Gain <= 0 || p.Gain >= 1 {
				t.Errorf("series %q: mean gain %.3f out of range", s.Label, p.Gain)
			}
		}
	}
}

func TestRunFigureReplicatedSingle(t *testing.T) {
	opts := Options{Scale: 0.03, Fracs: []float64{0.2}, Seed: 1}
	fig, err := RunFigureReplicated("5a", opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		for _, p := range s.Points {
			if p.GainCI != 0 {
				t.Errorf("single replicate should have zero CI, got %g", p.GainCI)
			}
		}
	}
	// A single replicate must agree with the plain run.
	plain, err := RunFigure("5a", opts)
	if err != nil {
		t.Fatal(err)
	}
	for si := range fig.Series {
		if fig.Series[si].Points[0].Gain != plain.Series[si].Points[0].Gain {
			t.Errorf("series %q: replicated(1) %.4f != plain %.4f",
				fig.Series[si].Label, fig.Series[si].Points[0].Gain, plain.Series[si].Points[0].Gain)
		}
	}
}

func TestRunFigureReplicatedValidation(t *testing.T) {
	if _, err := RunFigureReplicated("5a", tinyOpts(), 0); err == nil {
		t.Error("0 replicates accepted")
	}
	if _, err := RunFigureReplicated("nope", tinyOpts(), 2); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestAggregateFiguresShapeMismatch(t *testing.T) {
	a := &Figure{ID: "x", Series: []Series{{Label: "A", Points: []Point{{CacheFrac: 0.1, Gain: 0.5}}}}}
	b := &Figure{ID: "x", Series: []Series{{Label: "B", Points: []Point{{CacheFrac: 0.1, Gain: 0.5}}}}}
	if _, err := aggregateFigures([]*Figure{a, b}); err == nil {
		t.Error("label mismatch accepted")
	}
	c := &Figure{ID: "x", Series: []Series{{Label: "A"}}}
	if _, err := aggregateFigures([]*Figure{a, c}); err == nil {
		t.Error("point-count mismatch accepted")
	}
	if _, err := aggregateFigures(nil); err == nil {
		t.Error("empty aggregate accepted")
	}
	got, err := aggregateFigures([]*Figure{a, a})
	if err != nil || got.Series[0].Points[0].Gain != 0.5 {
		t.Errorf("identical aggregate wrong: %+v, %v", got, err)
	}
}
