package core

import (
	"fmt"

	"webcache/internal/stats"
)

// RunFigureReplicated regenerates a figure `replicates` times with
// consecutive seeds (workload and simulation randomness both re-drawn)
// and aggregates each point across replicates: Gain becomes the mean
// and GainCI its 95% Student-t confidence half-width.  This is the
// statistically honest form of every figure: the paper reports single
// simulation runs, and the confidence intervals here quantify how much
// seed noise its curves carry.
func RunFigureReplicated(id string, opts Options, replicates int) (*Figure, error) {
	if replicates < 1 {
		return nil, fmt.Errorf("core: replicates must be >= 1 (got %d)", replicates)
	}
	var figs []*Figure
	for r := 0; r < replicates; r++ {
		o := opts
		o.Seed = opts.Seed + int64(r)
		if p := opts.Progress; p != nil {
			// One sweep per replicate, each of the same jobs: progress
			// counts the jobs of all of them.
			o.Progress = func(done, total int) { p(r*total+done, replicates*total) }
		}
		f, err := RunFigure(id, o)
		if err != nil {
			return nil, fmt.Errorf("core: replicate %d: %w", r, err)
		}
		figs = append(figs, f)
	}
	return aggregateFigures(figs)
}

// aggregateFigures folds same-shaped figures into one with mean gains
// and confidence intervals.
func aggregateFigures(figs []*Figure) (*Figure, error) {
	if len(figs) == 0 {
		return nil, fmt.Errorf("core: nothing to aggregate")
	}
	base := figs[0]
	out := &Figure{ID: base.ID, Title: base.Title, XLabel: base.XLabel, YLabel: base.YLabel}
	for si, s := range base.Series {
		agg := Series{Label: s.Label}
		for pi, p := range s.Points {
			gains := make([]float64, 0, len(figs))
			lats := make([]float64, 0, len(figs))
			ncs := make([]float64, 0, len(figs))
			for _, f := range figs {
				if si >= len(f.Series) || pi >= len(f.Series[si].Points) {
					return nil, fmt.Errorf("core: replicate shape mismatch in series %q", s.Label)
				}
				if f.Series[si].Label != s.Label {
					return nil, fmt.Errorf("core: replicate series order mismatch: %q vs %q",
						f.Series[si].Label, s.Label)
				}
				rp := f.Series[si].Points[pi]
				gains = append(gains, rp.Gain)
				lats = append(lats, rp.AvgLatency)
				ncs = append(ncs, rp.NCLatency)
			}
			gSum, err := stats.Summarize(gains)
			if err != nil {
				return nil, err
			}
			lMean, _ := stats.Mean(lats)
			ncMean, _ := stats.Mean(ncs)
			agg.Points = append(agg.Points, Point{
				CacheFrac:  p.CacheFrac,
				Gain:       gSum.Mean,
				GainCI:     gSum.CI95,
				AvgLatency: lMean,
				NCLatency:  ncMean,
			})
		}
		out.Series = append(out.Series, agg)
	}
	return out, nil
}
