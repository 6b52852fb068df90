package sim

import (
	"fmt"
	"math"
	"strings"

	"webcache/internal/netmodel"
	"webcache/internal/obs"
)

// DecompRow compares one serving tier's span-derived mean latency
// against the analytic model.
type DecompRow struct {
	// Tier is the netmodel.Source label ("local-proxy", "p2p-cache",
	// "remote-proxy", "server").
	Tier string `json:"tier"`
	// Requests is the number of sampled traces that finished at this
	// tier.
	Requests int `json:"requests"`
	// Observed is the mean serving latency derived from spans, with
	// wasted probes (stale digests, directory false positives)
	// subtracted — the cost of the path that actually served the
	// request.
	Observed float64 `json:"observed"`
	// Analytic is netmodel.Model.Latency for the tier's source.
	Analytic float64 `json:"analytic"`
	// Delta is Observed - Analytic.
	Delta float64 `json:"delta"`
}

// DecompReport is the latency decomposition cross-checked against the
// analytic network model.
type DecompReport struct {
	Rows []DecompRow `json:"rows"`
	// MaxAbsDelta is the largest |Delta| across rows.
	MaxAbsDelta float64 `json:"max_abs_delta"`
	// Tolerance is the bound the check was run with.
	Tolerance float64 `json:"tolerance"`
	// Within reports whether every row's |Delta| <= Tolerance.
	Within bool `json:"within"`
}

// CheckDecomposition folds a span-derived latency decomposition
// against the analytic model: for each serving tier, the observed mean
// serving latency (total charged latency minus wasted probes, per
// request) must equal m.Latency(source) to within tol.
//
// The seven paper schemes satisfy this exactly: every engine charges
// Latency(src) plus wasted probes, and wasted spans are subtracted
// before comparing.  One deliberate deviation exists and is the
// caller's to expect: Squirrel serves without a proxy, so its p2p tier
// misses the Tl leg (Delta = -Tl) and its server tier misses it too.
//
// Tiers whose label does not parse as a netmodel source are skipped.
func CheckDecomposition(m netmodel.Model, d *obs.Decomposition, tol float64) *DecompReport {
	rep := &DecompReport{Tolerance: tol, Within: true}
	if d == nil {
		return rep
	}
	for _, td := range d.Tiers {
		src, ok := netmodel.ParseSource(td.Tier)
		if !ok {
			continue
		}
		row := DecompRow{
			Tier:     td.Tier,
			Requests: td.Requests,
			Observed: td.MeanServed(),
			Analytic: m.Latency(src),
		}
		row.Delta = row.Observed - row.Analytic
		if a := math.Abs(row.Delta); a > rep.MaxAbsDelta {
			rep.MaxAbsDelta = a
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.Within = rep.MaxAbsDelta <= tol
	return rep
}

// Table renders the report as an aligned text table.
func (r *DecompReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s %12s %12s %12s\n", "tier", "requests", "observed", "analytic", "delta")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %10d %12.6f %12.6f %+12.6f\n",
			row.Tier, row.Requests, row.Observed, row.Analytic, row.Delta)
	}
	fmt.Fprintf(&b, "max |delta| = %g (tolerance %g, within=%v)\n", r.MaxAbsDelta, r.Tolerance, r.Within)
	return b.String()
}
