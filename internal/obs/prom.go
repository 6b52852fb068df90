package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4, the subset
// OpenMetrics scrapers accept).  WritePrometheus renders a registry;
// PrometheusHandler serves it as the daemons' /metrics endpoint;
// ParsePrometheusSamples is the validating parser the cluster view
// scrapes members with and the tests read expositions with.
//
// Name mapping: dots become underscores under a webcache_ prefix
// (sim.serves.p2p -> webcache_sim_serves_p2p), counters gain the
// conventional _total suffix, timers and histograms render as
// summaries in seconds (histograms with their quantile set).

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
		}
	}
	return bw.Flush()
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
