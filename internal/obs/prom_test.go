package obs

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func promRegistry() *Registry {
	reg := NewRegistry("prom")
	reg.Counter("sim.requests").Add(42)
	reg.Gauge("loadgen.achieved_rate").Set(123.5)
	reg.Timer("sim.run").Observe(1500 * time.Millisecond)
	h := reg.Histogram("loadgen.latency")
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	return reg
}

func TestWritePrometheusParses(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, promRegistry()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE webcache_sim_requests_total counter",
		"webcache_sim_requests_total 42",
		"# TYPE webcache_loadgen_achieved_rate gauge",
		"webcache_loadgen_achieved_rate 123.5",
		"# TYPE webcache_sim_run_seconds summary",
		"webcache_sim_run_seconds_sum 1.5",
		"webcache_sim_run_seconds_count 1",
		"# TYPE webcache_loadgen_latency_seconds summary",
		`webcache_loadgen_latency_seconds{quantile="0.5"}`,
		`webcache_loadgen_latency_seconds{quantile="0.999"}`,
		"webcache_loadgen_latency_seconds_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	samples, _, err := ParsePrometheusSamples(strings.NewReader(out))
	if err != nil {
		t.Fatalf("our own exposition failed to parse: %v\n%s", err, out)
	}
	// counter + gauge + timer(sum,count) + histogram(4 quantiles + sum +
	// count).
	if len(samples) != 10 {
		t.Fatalf("parsed %d samples, want 10:\n%s", len(samples), out)
	}
}

func TestParsePrometheusSamplesValues(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, promRegistry()); err != nil {
		t.Fatal(err)
	}
	samples, types, err := ParsePrometheusSamples(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if types["webcache_sim_requests_total"] != "counter" ||
		types["webcache_loadgen_latency_seconds"] != "summary" {
		t.Fatalf("types = %v", types)
	}
	byName := map[string]Sample{}
	for _, s := range samples {
		if s.Labels == nil {
			byName[s.Name] = s
		}
	}
	if got := byName["webcache_sim_requests_total"].Value; got != 42 {
		t.Fatalf("counter value = %v", got)
	}
	if got := byName["webcache_loadgen_achieved_rate"].Value; got != 123.5 {
		t.Fatalf("gauge value = %v", got)
	}
	if got := byName["webcache_loadgen_latency_seconds_count"].Value; got != 100 {
		t.Fatalf("summary count = %v, want 100", got)
	}
	// A labelled sample: the p999 of 1..100 ms, within the histogram's
	// 4.4 % bound.
	var p999 float64
	for _, s := range samples {
		if s.Name == "webcache_loadgen_latency_seconds" && s.Label("quantile") == "0.999" {
			p999 = s.Value
		}
	}
	if p999 < 0.095 || p999 > 0.105 {
		t.Fatalf("p999 = %v s, want about 0.1", p999)
	}
}

func TestWritePrometheusNilRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, nil); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry: err=%v len=%d", err, buf.Len())
	}
}

func TestPrometheusHandler(t *testing.T) {
	rec := httptest.NewRecorder()
	PrometheusHandler(promRegistry()).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	if ss, _, err := ParsePrometheusSamples(rec.Body); err != nil || len(ss) == 0 {
		t.Fatalf("scrape did not parse: n=%d err=%v", len(ss), err)
	}
}

func TestParsePrometheusRejects(t *testing.T) {
	for _, bad := range []string{
		"webcache sim requests 1\n",
		"webcache_x 1 2 3\n",
		"# TYPE webcache_x bogus\n",
		"webcache_x{quantile=\"0.5\"} 1\n", // quantile without a summary TYPE
		"1metric 2\n",
	} {
		if _, _, err := ParsePrometheusSamples(strings.NewReader(bad)); err == nil {
			t.Fatalf("accepted malformed exposition %q", bad)
		}
	}
	if ss, _, err := ParsePrometheusSamples(strings.NewReader("# HELP x y\n\n# random comment\nok_metric 1\n")); err != nil || len(ss) != 1 {
		t.Fatalf("comment handling: n=%d err=%v", len(ss), err)
	}
}

func TestPromNameSanitizes(t *testing.T) {
	if got := promName("sim.serves.local_proxy"); got != "webcache_sim_serves_local_proxy" {
		t.Fatalf("promName = %q", got)
	}
	if got := promName("bench.Fig2a-16.ns/op"); got != "webcache_bench_Fig2a_16_ns_op" {
		t.Fatalf("promName = %q", got)
	}
}
