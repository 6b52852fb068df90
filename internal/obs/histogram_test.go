package obs

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second)
	h.Merge(&Histogram{})
	(&Histogram{}).Merge(h)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram returned non-zero")
	}
	if s := h.Summary(); s.Count != 0 {
		t.Fatalf("nil Summary = %+v", s)
	}
}

func TestDisabledHistogramZeroAlloc(t *testing.T) {
	var reg *Registry
	d := 3 * time.Millisecond
	allocs := testing.AllocsPerRun(1000, func() {
		h := reg.Histogram("loadgen.latency")
		h.Observe(d)
	})
	if allocs != 0 {
		t.Fatalf("disabled histogram allocated %v times per op", allocs)
	}
}

func TestRegistryHistogram(t *testing.T) {
	reg := NewRegistry("h")
	h := reg.Histogram("loadgen.latency")
	if h == nil || h != reg.Histogram("loadgen.latency") {
		t.Fatal("Histogram accessor not idempotent")
	}
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}

	var snap Metric
	for _, m := range reg.Snapshot() {
		if m.Name == "loadgen.latency" {
			snap = m
		}
	}
	if snap.Kind != "histogram" || snap.Count != 1000 {
		t.Fatalf("snapshot = %+v", snap)
	}

	vals := reg.Values()
	if vals["loadgen.latency.count"] != 1000 {
		t.Fatalf("values = %v", vals)
	}
	p50 := vals["loadgen.latency.p50"]
	if p50 < 0.45 || p50 > 0.55 {
		t.Fatalf("p50 = %v s, want ~0.5", p50)
	}
	if vals["loadgen.latency.max"] < 0.95 || vals["loadgen.latency.mean"] <= 0 {
		t.Fatalf("values = %v", vals)
	}
	for _, suffix := range []string{".count", ".mean", ".p50", ".p90", ".p99", ".p999", ".max"} {
		if _, ok := vals["loadgen.latency"+suffix]; !ok {
			t.Fatalf("missing flattened key %s in %v", suffix, vals)
		}
	}
	if _, ok := vals["loadgen.latency"]; ok {
		t.Fatal("unflattened histogram name leaked into Values")
	}

	if s := reg.String(); !strings.Contains(s, "loadgen.latency") || !strings.Contains(s, "n=1000") {
		t.Fatalf("String() = %q", s)
	}
}

// exactQuantile computes the reference quantile from sorted data with
// the same ceil-rank rule the histogram uses.
func exactQuantile(sorted []time.Duration, q float64) time.Duration {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// The histogram's quantile error bound: bucket growth 2^(1/8) with
// geometric-midpoint reporting caps the relative error at 2^(1/16)-1
// ≈ 4.4%.  Verify against exact sorted data on several synthetic
// distributions.
func TestHistogramQuantileErrorBounds(t *testing.T) {
	const relBound = 0.045
	rng := rand.New(rand.NewSource(7))
	dists := map[string]func() time.Duration{
		"exponential": func() time.Duration {
			return time.Duration(rng.ExpFloat64() * float64(5*time.Millisecond))
		},
		"uniform": func() time.Duration {
			return time.Duration(rng.Int63n(int64(100 * time.Millisecond)))
		},
		"lognormal": func() time.Duration {
			return time.Duration(math.Exp(rng.NormFloat64()*1.5) * float64(time.Millisecond))
		},
		"bimodal": func() time.Duration {
			if rng.Intn(10) == 0 {
				return time.Duration(rng.Int63n(int64(2 * time.Second)))
			}
			return time.Duration(rng.Int63n(int64(time.Millisecond)))
		},
	}
	for name, draw := range dists {
		t.Run(name, func(t *testing.T) {
			h := &Histogram{}
			samples := make([]time.Duration, 20000)
			for i := range samples {
				samples[i] = draw()
				h.Observe(samples[i])
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
				got := h.Quantile(q)
				want := exactQuantile(samples, q)
				if want < time.Microsecond { // below the histogram's 1µs bucket-0 resolution
					// Sub-resolution values share bucket 0; skip.
					continue
				}
				rel := math.Abs(float64(got)-float64(want)) / float64(want)
				if rel > relBound {
					t.Errorf("q=%.3f: got %v want %v (rel err %.3f > %.3f)",
						q, got, want, rel, relBound)
				}
			}
			if h.Max() != samples[len(samples)-1] {
				t.Errorf("max = %v, want %v", h.Max(), samples[len(samples)-1])
			}
		})
	}
}

// A constant distribution must report every quantile exactly: the
// min/max clamp collapses the bucket midpoint onto the single value.
func TestHistogramConstant(t *testing.T) {
	h := &Histogram{}
	const v = 1234567 * time.Nanosecond
	for i := 0; i < 100; i++ {
		h.Observe(v)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != v {
			t.Fatalf("q=%g: got %v, want %v", q, got, v)
		}
	}
	if h.Mean() != v || h.Min() != v || h.Max() != v {
		t.Fatalf("mean/min/max = %v/%v/%v, want %v", h.Mean(), h.Min(), h.Max(), v)
	}
}

func TestHistogramEmptyAndMerge(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram not zero-valued")
	}
	a, b := &Histogram{}, &Histogram{}
	for i := 1; i <= 1000; i++ {
		a.Observe(time.Duration(i) * time.Millisecond)
	}
	for i := 1001; i <= 2000; i++ {
		b.Observe(time.Duration(i) * time.Millisecond)
	}
	a.Merge(b)
	if a.Count() != 2000 {
		t.Fatalf("merged count %d", a.Count())
	}
	if a.Max() != 2000*time.Millisecond || a.Min() != time.Millisecond {
		t.Fatalf("merged extremes %v..%v", a.Min(), a.Max())
	}
	got := a.Quantile(0.5)
	want := time.Second
	if rel := math.Abs(float64(got)-float64(want)) / float64(want); rel > 0.045 {
		t.Fatalf("merged median %v, want ~%v", got, want)
	}
}

// Concurrent observers must not lose samples (the recorder shares one
// histogram across all driver goroutines).
func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	const workers, per = 8, 5000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*per+i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
}
