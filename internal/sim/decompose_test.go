package sim

import (
	"math"
	"strings"
	"testing"

	"webcache/internal/netmodel"
	"webcache/internal/obs"
	"webcache/internal/prowgen"
)

// traceRun replays a small workload under one scheme with every
// request sampled and returns the tracer.
func traceRun(t *testing.T, scheme Scheme, mutate func(*Config)) (*obs.Tracer, *Result) {
	t.Helper()
	tr, err := prowgen.Generate(prowgen.Config{
		NumRequests: 30_000, NumObjects: 1_000, NumClients: 200, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(obs.TracerOptions{Origin: "sim", SampleEvery: 1, Limit: 40_000})
	cfg := Config{Scheme: scheme, ProxyCacheFrac: 0.1, Seed: 7, Tracer: tracer}
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tracer, res
}

// The tentpole acceptance check: for each of the paper's seven
// schemes, the span-derived per-tier latency decomposition must agree
// with the analytic model exactly (the spans are the latency — any
// drift is an accounting bug in an engine).
func TestDecompositionMatchesAnalyticModel(t *testing.T) {
	for _, scheme := range AllSchemes() {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			tracer, res := traceRun(t, scheme, nil)
			if tracer.Len() == 0 {
				t.Fatal("no traces sampled")
			}
			d := tracer.Decompose()
			m := netmodel.Default()
			rep := CheckDecomposition(m, d, 1e-9)
			if !rep.Within {
				t.Fatalf("decomposition off the analytic model:\n%s", rep.Table())
			}
			if len(rep.Rows) == 0 {
				t.Fatal("no tiers in the decomposition")
			}
			// Every request is sampled: tier request counts must cover the
			// whole replay (warmup included — warmed requests are traced
			// too, they are just not in Result.Requests).
			total := 0
			for _, row := range rep.Rows {
				total += row.Requests
			}
			if total != tracer.Len() {
				t.Fatalf("decomposition covers %d requests, tracer holds %d", total, tracer.Len())
			}
			if res.Requests == 0 {
				t.Fatal("empty result")
			}
		})
	}
}

// Spans must also sum to the total charged latency per trace — wasted
// probes included — so the sum over all sampled traces reproduces the
// replay's aggregate latency.
func TestSpanTotalsReproduceAggregateLatency(t *testing.T) {
	tracer, _ := traceRun(t, HierGD, func(cfg *Config) {
		// Digests plus Bloom directories maximize wasted-probe paths.
		cfg.DigestInterval = 2_000
		cfg.Directory = DirBloom
	})
	d := tracer.Decompose()
	var spanSum, totalSum float64
	for _, td := range d.Tiers {
		spanSum += td.SpanTotal
		totalSum += td.Total
	}
	if math.Abs(spanSum-totalSum) > 1e-6 {
		t.Fatalf("span durations sum to %g, charged latency sums to %g", spanSum, totalSum)
	}
}

// Squirrel is the documented deviation: no proxy tier, so both its
// tiers sit exactly Tl below the analytic end-to-end model.
func TestSquirrelDecompositionDeviatesByTl(t *testing.T) {
	tracer, _ := traceRun(t, Squirrel, nil)
	m := netmodel.Default()
	rep := CheckDecomposition(m, tracer.Decompose(), 1e-9)
	if rep.Within {
		t.Fatal("Squirrel unexpectedly matches the proxied model")
	}
	for _, row := range rep.Rows {
		if math.Abs(row.Delta-(-m.Tl)) > 1e-9 {
			t.Fatalf("tier %s delta = %g, want -Tl = %g:\n%s", row.Tier, row.Delta, -m.Tl, rep.Table())
		}
	}
}

// A sampled sim run must emit Chrome trace-event JSON that passes the
// schema validator (the Perfetto-loadable export in the acceptance
// criteria), with one request event per trace.
func TestSimTraceExportsValidate(t *testing.T) {
	tr, err := prowgen.Generate(prowgen.Config{
		NumRequests: 30_000, NumObjects: 1_000, NumClients: 200, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	tc := obs.NewTracer(obs.TracerOptions{Origin: "sim", SampleEvery: 100})
	if _, err := Run(tr, Config{Scheme: HierGD, ProxyCacheFrac: 0.1, Seed: 3, Tracer: tc}); err != nil {
		t.Fatal(err)
	}
	if tc.Len() != 300 {
		t.Fatalf("sampled %d traces, want 300 (30000 / 100)", tc.Len())
	}

	var chrome strings.Builder
	if err := obs.WriteChromeTraces(&chrome, tc.Snapshots()); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace([]byte(chrome.String())); err != nil {
		t.Fatalf("chrome export invalid: %v", err)
	}
	if n := strings.Count(chrome.String(), `"cat":"request"`); n != 300 {
		t.Fatalf("chrome export has %d request events, want 300", n)
	}

	rep := CheckDecomposition(netmodel.Default(), tc.Decompose(), 1e-9)
	if !rep.Within {
		t.Fatalf("sampled decomposition off the model:\n%s", rep.Table())
	}
	if !strings.Contains(rep.Table(), "tier") {
		t.Fatal("table missing header")
	}
}
