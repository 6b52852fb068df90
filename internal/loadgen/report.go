package loadgen

import (
	"fmt"
	"strings"
	"time"

	"webcache/internal/obs"
)

// fmtDur renders a latency at report precision.
func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "-"
	case d < time.Millisecond:
		return d.Round(time.Microsecond).String()
	case d < time.Second:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Millisecond).String()
	}
}

// Table renders the run as the bench's human-readable report: issue
// counts, per-tier shares, and the latency quantile table.
func (r *Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s-loop: issued %d in %s (%.0f req/s achieved)",
		r.Mode, r.Issued, r.Elapsed.Round(time.Millisecond), r.AchievedRate)
	if r.WarmupDiscarded > 0 {
		fmt.Fprintf(&b, ", warmup discarded %d", r.WarmupDiscarded)
	}
	if r.Throttled > 0 {
		fmt.Fprintf(&b, ", throttled %d", r.Throttled)
	}
	fmt.Fprintf(&b, "\n%-13s %8s %7s  %9s %9s %9s %9s %9s\n",
		"tier", "requests", "share", "p50", "p90", "p99", "p999", "max")
	row := func(name string, count int, share float64, h *obs.Histogram) {
		s := h.Summary()
		fmt.Fprintf(&b, "%-13s %8d %6.1f%%  %9s %9s %9s %9s %9s\n",
			name, count, 100*share,
			fmtDur(s.P50), fmtDur(s.P90), fmtDur(s.P99), fmtDur(s.P999), fmtDur(s.Max))
	}
	for t := Tier(0); t < Tier(numTiers); t++ {
		if r.Tiers[t] == 0 {
			continue
		}
		row(t.String(), r.Tiers[t], r.HitRatio(t), r.PerTier[t])
	}
	row("overall", r.Measured, 1.0, r.Overall)
	return b.String()
}

// Summary flattens the run into manifest-note form.
func (r *Result) SummaryNote() map[string]any {
	tiers := map[string]any{}
	for t := Tier(0); t < Tier(numTiers); t++ {
		if r.Tiers[t] == 0 {
			continue
		}
		tiers[t.String()] = map[string]any{
			"requests":  r.Tiers[t],
			"hit_ratio": r.HitRatio(t),
			"latency":   r.PerTier[t].Summary(),
		}
	}
	return map[string]any{
		"mode":             r.Mode.String(),
		"issued":           r.Issued,
		"measured":         r.Measured,
		"errors":           r.Errors,
		"warmup_discarded": r.WarmupDiscarded,
		"throttled":        r.Throttled,
		"elapsed_seconds":  r.Elapsed.Seconds(),
		"achieved_rate":    r.AchievedRate,
		"aggregate_hit":    r.AggregateHitRatio(),
		"tiers":            tiers,
		"overall_latency":  r.Overall.Summary(),
	}
}
