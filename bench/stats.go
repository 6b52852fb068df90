package main

import (
	"math"
	"sort"

	"webcache/internal/stats"
)

// percentile returns the exact p-th percentile (0 < p <= 100) of xs by
// the nearest-rank rule: the smallest sample with at least p% of the
// samples at or below it.  xs is sorted in place.  No interpolation and
// no buckets: the answer is always one of the samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	// The epsilon keeps a product that is a whole number in exact
	// arithmetic (99.9 % of 1000) from rounding up to the next rank.
	rank := int(math.Ceil(p*float64(len(xs))/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median is the midpoint median (mean of the two middle samples for an
// even count), the statistic every per-block metric is reduced with; 0
// for no samples.
func median(xs []float64) float64 {
	m, _ := stats.Median(xs)
	return m
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so
// noise.json agrees with the acceptance check's own arithmetic.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return median(xs), median(xs)
	}
	sort.Float64s(xs)
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return xs[j-1] + frac*(xs[j]-xs[j-1])
	}
	return at(1), at(3)
}

// mean is the arithmetic mean; 0 for no samples.
func mean(xs []float64) float64 {
	m, _ := stats.Mean(xs)
	return m
}
