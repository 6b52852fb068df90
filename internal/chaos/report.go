package chaos

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
	// P999Cut is how much the defenses cut the live tail, p999(off) /
	// p999(on): >1 means they helped.  DefensePrice is the live hit
	// ratio they cost, hit(off) - hit(on): >0 means they gave up hits.
	// SetLive derives both.
	P999Cut      float64 `json:"p999_cut"`
	DefensePrice float64 `json:"defense_price"`
}

// SetLive records the scenario's live runs, defenses off and on, and
// the deltas between them.
func (r *Row) SetLive(off, on *LiveReport) {
	r.LiveOff, r.LiveOn = off, on
	r.DefensePrice = off.HitRatio - on.HitRatio
	if on.P999Ms > 0 {
		r.P999Cut = off.P999Ms / on.P999Ms
	}
}

// Violations sums accountant violations across every run of the row —
// the acceptance gate requires zero.
func (r Row) Violations() int64 {
	var v int64
	if r.LiveOff != nil {
		v += r.LiveOff.Violations
	}
	if r.LiveOn != nil {
		v += r.LiveOn.Violations
	}
	if r.SimOff != nil {
		v += r.SimOff.Violations
	}
	if r.SimOn != nil {
		v += r.SimOn.Violations
	}
	return v
}
