package chaos

import (
	"slices"

	"webcache/internal/stats"
)

// Row is one scenario's BENCH_chaos.json record: the scenario run
// live with defenses off and on, and simulated with defenses off (and
// on, where SimDefended maps a defense into the simulator), plus the
// derived deltas the gate reads.
type Row struct {
	Scenario    string      `json:"scenario"`
	Description string      `json:"description"`
	LiveOff     *LiveReport `json:"live_off"`
	LiveOn      *LiveReport `json:"live_on"`
	SimOff      *SimReport  `json:"sim_off"`
	SimOn       *SimReport  `json:"sim_on,omitempty"`
	// Replicates holds each live pair's deltas, defenses off and on, all
	// at Seed; LiveOff and LiveOn are the first pair's reports.  P999Cut,
	// P99Cut and DefensePrice are the replicates' medians.  AddLive
	// derives them.
	Replicates   []Replicate `json:"replicates"`
	P999Cut      float64     `json:"p999_cut"`
	P99Cut       float64     `json:"p99_cut"`
	DefensePrice float64     `json:"defense_price"`
}

// Replicate is one live pair's deltas.  A cut is how much the defenses
// cut a live tail quantile, off / on: >1 means they helped.  The price
// is the live hit ratio they cost, hit(off) - hit(on): >0 means they
// gave up hits.
type Replicate struct {
	P999Cut      float64 `json:"p999_cut"`
	P99Cut       float64 `json:"p99_cut"`
	DefensePrice float64 `json:"defense_price"`
	Violations   int64   `json:"invariant_violations"`
}

// AddLive records one replicate of the scenario's live runs, defenses
// off and on, and the row's medians over the replicates so far.
func (r *Row) AddLive(off, on *LiveReport) {
	if r.LiveOff == nil {
		r.LiveOff, r.LiveOn = off, on
	}
	rep := Replicate{DefensePrice: off.HitRatio - on.HitRatio, Violations: off.Violations + on.Violations}
	if on.P999Ms > 0 {
		rep.P999Cut = off.P999Ms / on.P999Ms
	}
	if on.P99Ms > 0 {
		rep.P99Cut = off.P99Ms / on.P99Ms
	}
	r.Replicates = append(r.Replicates, rep)
	r.P999Cut = r.Spread(func(x Replicate) float64 { return x.P999Cut }).Median
	r.P99Cut = r.Spread(func(x Replicate) float64 { return x.P99Cut }).Median
	r.DefensePrice = r.Spread(func(x Replicate) float64 { return x.DefensePrice }).Median
}

// Spread is one statistic over a row's replicates: its median and its
// range.
type Spread struct{ Median, Min, Max float64 }

// Spread summarises stat over the row's replicates.
func (r Row) Spread(stat func(Replicate) float64) Spread {
	xs := make([]float64, len(r.Replicates))
	for i, x := range r.Replicates {
		xs[i] = stat(x)
	}
	med, err := stats.Median(xs)
	if err != nil {
		return Spread{} // no replicate yet
	}
	return Spread{Median: med, Min: slices.Min(xs), Max: slices.Max(xs)}
}

// Resolved reports whether s's median lies outside floor's range, the
// fault-free baseline row's: a cut or a price inside the baseline's own
// spread is one the suite cannot tell from run-to-run noise.
func (s Spread) Resolved(floor Spread) bool { return s.Median < floor.Min || s.Median > floor.Max }

// Violations sums accountant violations across every run of the row,
// each live replicate's included — the acceptance gate requires zero.
func (r Row) Violations() int64 {
	var v int64
	for _, x := range r.Replicates {
		v += x.Violations
	}
	if r.SimOff != nil {
		v += r.SimOff.Violations
	}
	if r.SimOn != nil {
		v += r.SimOn.Violations
	}
	return v
}
