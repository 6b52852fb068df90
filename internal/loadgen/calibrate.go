package loadgen

import (
	"fmt"
	"math"
	"strings"

	"webcache/internal/netmodel"
	"webcache/internal/sim"
	"webcache/internal/trace"
)

// CalibrationSchema versions the calibration-report JSON layout.
const CalibrationSchema = 1

// TierComparison is one serving tier's live-vs-simulated hit ratio.
type TierComparison struct {
	Tier  string  `json:"tier"`
	Live  float64 `json:"live"`
	Sim   float64 `json:"sim"`
	Delta float64 `json:"delta"` // live - sim
}

// CalibrationReport is the side-by-side of a live bench run and a
// simulator replay of the same request prefix with identical
// capacities: the model-vs-deployment drift as a measurable,
// regression-testable quantity.
type CalibrationReport struct {
	Schema       int              `json:"schema"`
	Scheme       string           `json:"scheme"`
	LiveRequests int              `json:"live_requests"` // measured (post-warmup, non-error)
	SimRequests  int              `json:"sim_requests"`
	Warmup       int              `json:"warmup"`
	Tiers        []TierComparison `json:"tiers"`
	// Aggregate hit ratio = 1 - origin share: the headline number the
	// tolerance is judged on.
	AggregateLive  float64 `json:"aggregate_live"`
	AggregateSim   float64 `json:"aggregate_sim"`
	AggregateDelta float64 `json:"aggregate_delta"`
	// MaxAbsDelta is the largest per-tier |delta|.
	MaxAbsDelta float64 `json:"max_abs_delta"`
	// Tolerance (0 = report-only) bounds |AggregateDelta|.
	Tolerance       float64 `json:"tolerance,omitempty"`
	WithinTolerance bool    `json:"within_tolerance"`
}

// liveTiers are the tiers with simulator counterparts, in report order.
var liveTiers = []Tier{TierProxy, TierClientCache, TierRemoteProxy, TierOrigin}

// Calibrate replays the prefix of tr that the live run actually issued
// through the simulator under cfg and compares hit ratios per tier.
// cfg should carry the capacity plan the live topology was sized from
// (Proxy/ClientCapacityOverride) and the same warmup; Calibrate clamps
// the warmup if the live run was cut short.  A live run that measured
// no request (every one discarded as warmup, or failed) is refused:
// its hit ratios are 0 by definition, not a measurement.  tolerance
// bounds the aggregate delta (0 disables the verdict — WithinTolerance
// stays true).
func Calibrate(tr *trace.Trace, live *Result, cfg sim.Config, tolerance float64) (*CalibrationReport, error) {
	if live == nil {
		return nil, fmt.Errorf("loadgen: no live run to calibrate against")
	}
	if live.Measured == 0 {
		return nil, fmt.Errorf("loadgen: the live run measured no request to calibrate against: of %d issued, %d discarded as warmup, %d failed",
			live.Issued, live.WarmupDiscarded, live.Errors)
	}
	if tolerance < 0 {
		return nil, fmt.Errorf("loadgen: negative tolerance %g", tolerance)
	}
	n := live.Issued
	if n > tr.Len() {
		return nil, fmt.Errorf("loadgen: live run issued %d requests but the trace has %d", n, tr.Len())
	}
	sub := tr.Slice(0, n)
	if cfg.WarmupRequests >= n {
		cfg.WarmupRequests = n - 1
	}
	res, err := sim.Run(sub, cfg)
	if err != nil {
		return nil, fmt.Errorf("loadgen: calibration replay: %w", err)
	}

	rep := &CalibrationReport{
		Schema:       CalibrationSchema,
		Scheme:       cfg.Scheme.String(),
		LiveRequests: live.Measured,
		SimRequests:  res.Requests,
		Warmup:       cfg.WarmupRequests,
	}
	for _, t := range liveTiers {
		src, _ := t.Source()
		c := TierComparison{
			Tier: src.String(),
			Live: live.HitRatio(t),
			Sim:  res.HitRatio(src),
		}
		c.Delta = c.Live - c.Sim
		if d := math.Abs(c.Delta); d > rep.MaxAbsDelta {
			rep.MaxAbsDelta = d
		}
		rep.Tiers = append(rep.Tiers, c)
	}
	rep.AggregateLive = live.AggregateHitRatio()
	rep.AggregateSim = 1 - res.HitRatio(netmodel.SrcServer)
	rep.AggregateDelta = rep.AggregateLive - rep.AggregateSim
	rep.Tolerance = tolerance
	rep.WithinTolerance = tolerance == 0 || math.Abs(rep.AggregateDelta) <= tolerance
	return rep, nil
}

// Table renders the report as an aligned text table.
func (r *CalibrationReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "calibration: %s, live n=%d vs sim n=%d (warmup %d)\n",
		r.Scheme, r.LiveRequests, r.SimRequests, r.Warmup)
	fmt.Fprintf(&b, "%-14s %9s %9s %9s\n", "tier", "live", "sim", "delta")
	for _, c := range r.Tiers {
		fmt.Fprintf(&b, "%-14s %8.2f%% %8.2f%% %+8.2fpp\n",
			c.Tier, 100*c.Live, 100*c.Sim, 100*c.Delta)
	}
	fmt.Fprintf(&b, "%-14s %8.2f%% %8.2f%% %+8.2fpp\n",
		"aggregate-hit", 100*r.AggregateLive, 100*r.AggregateSim, 100*r.AggregateDelta)
	if r.Tolerance > 0 {
		verdict := "within"
		if !r.WithinTolerance {
			verdict = "OUTSIDE"
		}
		fmt.Fprintf(&b, "tolerance ±%.1fpp: %s\n", 100*r.Tolerance, verdict)
	}
	return b.String()
}
