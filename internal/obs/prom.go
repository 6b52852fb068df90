package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4, the subset
// OpenMetrics scrapers accept).  WritePrometheus renders a registry;
// PrometheusHandler serves it as the daemons' /metrics endpoint;
// ParsePrometheusSamples is the validating parser the cluster
// aggregator merges from and the tests scrape with.
//
// Name mapping: dots become underscores under a webcache_ prefix
// (sim.serves.p2p -> webcache_sim_serves_p2p), counters gain the
// conventional _total suffix, timers and histograms render as
// summaries in seconds (histograms with their quantile set).
//
// Histograms additionally export a lossless bucket family,
// <name>_seconds_hist, as a native Prometheus histogram: one
// cumulative _bucket sample per non-empty bucket (le = the bucket's
// upper bound in seconds at full float precision), the +Inf bucket,
// _sum/_count, and _min/_max sidecar samples.  Because the bucket
// layout is fixed (histogram.go), RestoreHistogram maps the le values
// exactly back onto bucket indices — a scrape round-trips bucket for
// bucket, which is what lets the cluster aggregator merge histograms
// across members without quantile distortion.

// promName sanitizes a dotted metric name into a Prometheus metric
// name.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("webcache_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promValue renders a float the way Prometheus expects.
func promValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry in Prometheus text exposition
// format.  A nil registry renders nothing (an empty, valid scrape).
func WritePrometheus(w io.Writer, r *Registry) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	snap := r.Snapshot()
	hists := r.histSnapshot()
	for _, m := range snap {
		name := promName(m.Name)
		switch m.Kind {
		case "counter":
			fmt.Fprintf(bw, "# TYPE %s_total counter\n", name)
			fmt.Fprintf(bw, "%s_total %s\n", name, promValue(m.Value))
		case "gauge":
			fmt.Fprintf(bw, "# TYPE %s gauge\n", name)
			fmt.Fprintf(bw, "%s %s\n", name, promValue(m.Value))
		case "timer":
			fmt.Fprintf(bw, "# TYPE %s_seconds summary\n", name)
			fmt.Fprintf(bw, "%s_seconds_sum %s\n", name, promValue(m.Value))
			fmt.Fprintf(bw, "%s_seconds_count %d\n", name, m.Count)
		case "histogram":
			h := hists[m.Name]
			fmt.Fprintf(bw, "# TYPE %s_seconds summary\n", name)
			for _, q := range histQuantiles {
				fmt.Fprintf(bw, "%s_seconds{quantile=%q} %s\n",
					name, strconv.FormatFloat(q.q, 'g', -1, 64), promValue(h.Quantile(q.q).Seconds()))
			}
			fmt.Fprintf(bw, "%s_seconds_sum %s\n", name, promValue(h.Sum().Seconds()))
			fmt.Fprintf(bw, "%s_seconds_count %d\n", name, h.Count())
			writeHistBuckets(bw, name, h)
		}
	}
	return bw.Flush()
}

// writeHistBuckets emits the lossless bucket family for one histogram.
// Bucket counts are snapshotted first so the cumulative series, the
// +Inf bucket, and _count agree with each other even while observers
// race the scrape.
func writeHistBuckets(w io.Writer, name string, h *Histogram) {
	var counts [histBuckets]int64
	var total int64
	for i := range counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	fmt.Fprintf(w, "# TYPE %s_seconds_hist histogram\n", name)
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		cum += c
		_, hi := bucketBounds(i)
		fmt.Fprintf(w, "%s_seconds_hist_bucket{le=%q} %d\n", name, promValue(hi/1e9), cum)
	}
	fmt.Fprintf(w, "%s_seconds_hist_bucket{le=\"+Inf\"} %d\n", name, total)
	fmt.Fprintf(w, "%s_seconds_hist_sum %s\n", name, promValue(h.Sum().Seconds()))
	fmt.Fprintf(w, "%s_seconds_hist_count %d\n", name, total)
	fmt.Fprintf(w, "%s_seconds_hist_min %s\n", name, promValue(h.Min().Seconds()))
	fmt.Fprintf(w, "%s_seconds_hist_max %s\n", name, promValue(h.Max().Seconds()))
}

// PrometheusHandler serves the registry as a /metrics endpoint.
func PrometheusHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, r)
	})
}

var (
	promTypeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|summary|histogram|untyped)$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (NaN|[+-]?Inf|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)( [0-9]+)?$`)
	promLabelRe  = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="([^"]*)"`)
)

// Sample is one parsed exposition sample: a metric name, its label set
// (nil when unlabeled), and the value.
type Sample struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// Label returns the named label's value ("" when absent).
func (s Sample) Label(key string) string { return s.Labels[key] }

// ParsePrometheusSamples validates a text-format exposition and parses
// it into its samples plus the # TYPE declarations (family name ->
// type).  It accepts the 0.0.4 grammar this package emits: optional
// # HELP / # TYPE comments and name{labels} value [timestamp] samples.
// This is the reader the cluster aggregator scrapes members with.
func ParsePrometheusSamples(r io.Reader) (samples []Sample, types map[string]string, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	types = map[string]string{}
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if strings.HasPrefix(text, "# HELP ") {
				continue
			}
			if m := promTypeRe.FindStringSubmatch(text); m != nil {
				types[m[1]] = m[2]
				continue
			}
			if strings.HasPrefix(text, "# TYPE") {
				return samples, types, fmt.Errorf("line %d: malformed TYPE comment: %q", line, text)
			}
			continue // other comments are legal
		}
		m := promSampleRe.FindStringSubmatch(text)
		if m == nil {
			return samples, types, fmt.Errorf("line %d: malformed sample: %q", line, text)
		}
		// Quantile labels may only appear on summary/histogram
		// families; catch a mislabeled scalar early.
		if strings.Contains(m[2], "quantile=") {
			base := m[1]
			if types[base] != "summary" && types[base] != "histogram" {
				return samples, types, fmt.Errorf("line %d: quantile label on non-summary %q", line, base)
			}
		}
		s := Sample{Name: m[1]}
		if m[2] != "" {
			for _, lm := range promLabelRe.FindAllStringSubmatch(m[2], -1) {
				if s.Labels == nil {
					s.Labels = map[string]string{}
				}
				s.Labels[lm[1]] = lm[2]
			}
		}
		s.Value, err = strconv.ParseFloat(m[3], 64)
		if err != nil {
			return samples, types, fmt.Errorf("line %d: bad value %q: %v", line, m[3], err)
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return samples, types, err
	}
	return samples, types, nil
}

// bucketForUpper maps a _hist bucket's le value (seconds) back onto
// its fixed-layout bucket index — the inverse of the hi bound
// writeHistBuckets emitted.  Rounding absorbs the float formatting
// round trip.
func bucketForUpper(leSeconds float64) int {
	hi := leSeconds * 1e9
	if hi <= 0 {
		return 0
	}
	i := int(math.Round(math.Log(hi/float64(histMin))/math.Log(histGrowth))) - 1
	if i < 0 {
		i = 0
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// RestoreHistogram rebuilds a Histogram from one scraped
// <name>_seconds_hist family: the cumulative bucket counts keyed by
// their le upper bound in seconds (+Inf included), plus the family's
// sum/min/max samples in seconds.  Because the bucket layout is fixed,
// the reconstruction is exact per bucket; the result merges losslessly
// into other restored or live histograms via Merge.
func RestoreHistogram(cumulative map[float64]int64, sumSeconds, minSeconds, maxSeconds float64) *Histogram {
	h := &Histogram{}
	les := make([]float64, 0, len(cumulative))
	for le := range cumulative {
		if !math.IsInf(le, 1) {
			les = append(les, le)
		}
	}
	sort.Float64s(les)
	var prev, total int64
	for _, le := range les {
		c := cumulative[le]
		if d := c - prev; d > 0 {
			h.counts[bucketForUpper(le)].Add(d)
			total += d
		}
		prev = c
	}
	// Any +Inf remainder past the last finite bound belongs to the
	// final catch-all bucket.
	if inf, ok := cumulative[math.Inf(1)]; ok && inf > prev {
		h.counts[histBuckets-1].Add(inf - prev)
		total += inf - prev
	}
	h.count.Store(total)
	h.sum.Store(int64(math.Round(sumSeconds * 1e9)))
	if minSeconds > 0 {
		h.min.Store(int64(math.Round(minSeconds * 1e9)))
	}
	if maxSeconds > 0 {
		h.max.Store(int64(math.Round(maxSeconds * 1e9)))
	}
	return h
}

// sortedNames is a tiny helper for deterministic iteration in tests.
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
