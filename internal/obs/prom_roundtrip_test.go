package obs

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// restoreFromExposition scrapes one _seconds_hist family out of an
// exposition the way the cluster aggregator does: parse the samples,
// collect the family's cumulative buckets and sidecars, and rebuild.
func restoreFromExposition(t *testing.T, text, family string) *Histogram {
	t.Helper()
	samples, types, err := ParsePrometheusSamples(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if types[family] != "histogram" {
		t.Fatalf("family %s typed %q, want histogram", family, types[family])
	}
	buckets := map[float64]int64{}
	var sum, min, max float64
	for _, s := range samples {
		switch s.Name {
		case family + "_bucket":
			le := math.Inf(1)
			if v := s.Label("le"); v != "+Inf" {
				le, err = strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("bad le %q: %v", v, err)
				}
			}
			buckets[le] = int64(s.Value)
		case family + "_sum":
			sum = s.Value
		case family + "_min":
			min = s.Value
		case family + "_max":
			max = s.Value
		}
	}
	return RestoreHistogram(buckets, sum, min, max)
}

// TestHistogramBucketRoundTrip drives samples spanning sub-bucket
// floor to past the last bucket bound through WritePrometheus and
// ParsePrometheusSamples and asserts the reconstruction is exact:
// every bucket count, the count/sum/min/max, and therefore every
// quantile.  The cluster aggregator's merge is only correct if this
// round trip is lossless.
func TestHistogramBucketRoundTrip(t *testing.T) {
	reg := NewRegistry("roundtrip")
	h := reg.Histogram("loadgen.latency")
	durations := []time.Duration{
		0,                      // below histMin -> bucket 0
		500 * time.Nanosecond,  // still bucket 0
		time.Microsecond,       // boundary
		17 * time.Microsecond,  //
		250 * time.Microsecond, //
		time.Millisecond,
		3 * time.Millisecond,
		42 * time.Millisecond,
		999 * time.Millisecond,
		2 * time.Second,
		30 * time.Second,
		500 * time.Second, // past the last bound -> catch-all bucket
	}
	for i, d := range durations {
		for j := 0; j <= i; j++ { // uneven per-bucket counts
			h.Observe(d)
		}
	}

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	got := restoreFromExposition(t, buf.String(), "webcache_loadgen_latency_seconds_hist")

	if got.Count() != h.Count() {
		t.Fatalf("count: got %d want %d", got.Count(), h.Count())
	}
	if got.Sum() != h.Sum() {
		t.Fatalf("sum: got %v want %v", got.Sum(), h.Sum())
	}
	if got.Min() != h.Min() || got.Max() != h.Max() {
		t.Fatalf("min/max: got %v/%v want %v/%v", got.Min(), got.Max(), h.Min(), h.Max())
	}
	for i := 0; i < histBuckets; i++ {
		if g, w := got.counts[i].Load(), h.counts[i].Load(); g != w {
			t.Fatalf("bucket %d: got %d want %d", i, g, w)
		}
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if g, w := got.Quantile(q), h.Quantile(q); g != w {
			t.Fatalf("q%g: got %v want %v", q, g, w)
		}
	}

	// A second scrape merged on top doubles every bucket — the merge
	// the aggregator performs across members.
	got.Merge(restoreFromExposition(t, buf.String(), "webcache_loadgen_latency_seconds_hist"))
	if got.Count() != 2*h.Count() {
		t.Fatalf("merged count: got %d want %d", got.Count(), 2*h.Count())
	}
	for i := 0; i < histBuckets; i++ {
		if g, w := got.counts[i].Load(), 2*h.counts[i].Load(); g != w {
			t.Fatalf("merged bucket %d: got %d want %d", i, g, w)
		}
	}
}

// TestRestoreHistogramEmpty keeps the degenerate scrape (no samples
// yet) from fabricating observations.
func TestRestoreHistogramEmpty(t *testing.T) {
	h := RestoreHistogram(map[float64]int64{math.Inf(1): 0}, 0, 0, 0)
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty restore: count=%d sum=%v min=%v max=%v", h.Count(), h.Sum(), h.Min(), h.Max())
	}
}
