package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: fixed log-scale buckets with growth factor
// 2^(1/8) (~9.05% per bucket) from 1µs up; everything past the last
// boundary lands in the final bucket (~268s with 224 buckets).
// Quantiles report the geometric midpoint of their bucket clamped to
// the observed min/max, so the worst-case relative error is
// 2^(1/16)-1 ≈ 4.4% (asserted by TestHistogramQuantileErrorBounds in
// histogram_test.go).
const (
	histBuckets = 224
	histMin     = time.Microsecond
)

// histGrowth is the per-bucket growth factor.
var histGrowth = math.Pow(2, 1.0/8)

// bucketIndex maps a duration to its bucket.
func bucketIndex(d time.Duration) int {
	if d <= histMin {
		return 0
	}
	i := int(math.Log(float64(d)/float64(histMin)) / math.Log(histGrowth))
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketBounds returns bucket i's (lower, upper] boundaries in
// nanoseconds.
func bucketBounds(i int) (lo, hi float64) {
	lo = float64(histMin) * math.Pow(histGrowth, float64(i))
	return lo, lo * histGrowth
}

// Histogram is a fixed-bucket log-scale latency histogram and the
// registry's fourth metric kind (Registry.Histogram).  All operations
// are lock-free atomics, so concurrent workers record into one
// histogram without coordination; the zero value is ready to use, and
// — like every obs handle — a nil *Histogram ignores all operations.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64 // nanoseconds
	min    atomic.Int64 // nanoseconds; 0 = unset
	max    atomic.Int64 // nanoseconds
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.counts[bucketIndex(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		old := h.min.Load()
		if old != 0 && old <= int64(d) {
			break
		}
		v := int64(d)
		if v == 0 {
			v = 1 // keep 0 as the unset sentinel
		}
		if h.min.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.max.Load()
		if old >= int64(d) {
			break
		}
		if h.max.CompareAndSwap(old, int64(d)) {
			break
		}
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the accumulated duration across all samples.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Mean returns the average sample (0 when empty).
func (h *Histogram) Mean() time.Duration {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Max returns the largest sample observed.
func (h *Histogram) Max() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.max.Load())
}

// Min returns the smallest sample observed (0 when empty).
func (h *Histogram) Min() time.Duration {
	if h == nil {
		return 0
	}
	v := h.min.Load()
	if v == 1 {
		v = 0
	}
	return time.Duration(v)
}

// Quantile estimates the q-quantile (q in [0,1]): the geometric
// midpoint of the bucket holding the q*count-th sample, clamped to the
// observed extremes.  Concurrent Observe calls may skew an in-flight
// snapshot by the racing samples; call it after recording settles.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i].Load()
		if cum >= rank {
			lo, hi := bucketBounds(i)
			mid := time.Duration(math.Sqrt(lo * hi))
			if mn := h.Min(); mid < mn {
				mid = mn
			}
			if mx := h.Max(); mx > 0 && mid > mx {
				mid = mx
			}
			return mid
		}
	}
	return h.Max()
}

// Merge folds o's samples into h (o keeps its contents).  Merging into
// or from a nil histogram is a no-op.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	for i := 0; i < histBuckets; i++ {
		if v := o.counts[i].Load(); v != 0 {
			h.counts[i].Add(v)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	if v := o.min.Load(); v != 0 {
		for {
			old := h.min.Load()
			if old != 0 && old <= v {
				break
			}
			if h.min.CompareAndSwap(old, v) {
				break
			}
		}
	}
	if v := o.max.Load(); v != 0 {
		for {
			old := h.max.Load()
			if old >= v {
				break
			}
			if h.max.CompareAndSwap(old, v) {
				break
			}
		}
	}
}

// QuantileSummary is the fixed quantile set reports carry.
type QuantileSummary struct {
	Count int64         `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	P99   time.Duration `json:"p99_ns"`
	P999  time.Duration `json:"p999_ns"`
	Max   time.Duration `json:"max_ns"`
}

// Summary snapshots the standard quantile set.
func (h *Histogram) Summary() QuantileSummary {
	if h == nil {
		return QuantileSummary{}
	}
	return QuantileSummary{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.Max(),
	}
}

// histQuantiles is the quantile set a registry histogram flattens to in
// manifests (Values) and exposes on /metrics (WritePrometheus).
var histQuantiles = []struct {
	q      float64
	suffix string
}{
	{0.50, "p50"},
	{0.90, "p90"},
	{0.99, "p99"},
	{0.999, "p999"},
}
