package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webcache"
	"webcache/internal/obs"
)

// startSession opens webcachesim's observability session from the
// given command-line flags.
func startSession(t *testing.T, args ...string) *obs.Session {
	t.Helper()
	fs := flag.NewFlagSet("webcachesim", flag.ContinueOnError)
	sess := obs.NewSession(fs, "webcachesim")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := sess.Start(); err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestRunManifestGolden drives a small -run end to end through the
// observability session and checks the emitted manifest is
// schema-valid, echoes the config, fingerprints the trace, and
// carries the full metric set.
func TestRunManifestGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	sess := startSession(t, "-manifest", path)
	sess.SetConfig("run", "hier-gd")
	sess.SetConfig("frac", 0.3)

	src := traceSource{scale: 0.02, seed: 1}
	if err := runScheme("hier-gd", src, 0.3, sess, nil); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	m, err := obs.ReadManifestFile(path)
	if err != nil {
		t.Fatalf("manifest failed validation: %v", err)
	}
	if m.Tool != "webcachesim" {
		t.Fatalf("tool = %q", m.Tool)
	}
	if m.Config["run"] != "hier-gd" {
		t.Fatalf("config echo missing: %v", m.Config)
	}
	if len(m.Metrics) < 10 {
		t.Fatalf("manifest has %d metrics, want >= 10: %v", len(m.Metrics), m.Metrics)
	}
	// One NC baseline plus the scheme under test.
	if m.Metrics["sim.runs"] != 2 {
		t.Fatalf("sim.runs = %g, want 2", m.Metrics["sim.runs"])
	}
	fp, _ := m.Trace["fingerprint"].(string)
	if !strings.HasPrefix(fp, "fnv1a:") {
		t.Fatalf("trace fingerprint = %q", fp)
	}
	if m.WallSeconds <= 0 {
		t.Fatalf("wall_seconds = %g", m.WallSeconds)
	}
	if gain, ok := m.Notes["latency_gain"].(float64); !ok || gain <= 0 {
		t.Fatalf("latency_gain note = %v", m.Notes["latency_gain"])
	}
}

// TestRunTraceExport drives -run with span tracing on: the sampled sim
// run must emit valid Chrome trace-event JSON, publish the trace.*
// totals into the manifest (one request event per sampled trace, one
// event per span), and record a decomposition note
// whose span-derived tiers match the analytic model.
func TestRunTraceExport(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "trace.json")
	manifest := filepath.Join(dir, "run.json")
	sess := startSession(t, "-manifest", manifest, "-trace-out", out, "-trace-sample", "50")
	if err := runScheme("hier-gd", traceSource{scale: 0.02, seed: 1}, 0.3, sess, nil); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(data); err != nil {
		t.Fatalf("chrome export invalid: %v", err)
	}
	m, err := obs.ReadManifestFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	traces := strings.Count(string(data), `"cat":"request"`)
	if traces == 0 || m.Metrics["trace.sampled"] != float64(traces) {
		t.Fatalf("trace.sampled = %v for %d exported traces", m.Metrics["trace.sampled"], traces)
	}
	if events := chromeEvents(t, data); float64(events) != m.Metrics["trace.sampled"]+m.Metrics["trace.spans"] {
		t.Fatalf("chrome export holds %d events for %v traces and %v spans",
			events, m.Metrics["trace.sampled"], m.Metrics["trace.spans"])
	}
	dec, ok := m.Notes["decomposition"].(map[string]any)
	if !ok {
		t.Fatalf("decomposition note = %T", m.Notes["decomposition"])
	}
	if within, _ := dec["within"].(bool); !within {
		t.Fatalf("span-derived decomposition disagrees with the analytic model: %v", dec)
	}
}

// chromeEvents counts the events of a Chrome trace-event export.
func chromeEvents(t *testing.T, data []byte) int {
	t.Helper()
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return len(doc.TraceEvents)
}

// TestCPUProfileFlag checks that -cpuprofile produces a pprof-format
// file (gzip-framed protobuf) even for a short run.
func TestCPUProfileFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.out")
	sess := startSession(t, "-cpuprofile", path)
	if err := runScheme("sc", traceSource{scale: 0.02, seed: 1}, 0.3, sess, nil); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatalf("profile is not gzip-framed pprof data (%d bytes)", len(b))
	}
}

// A -replicates count below 1 is refused before any sweep runs, not
// taken as one replicate.
func TestRunFigureRefusesReplicatesBelowOne(t *testing.T) {
	sess := startSession(t)
	for _, n := range []int{0, -1} {
		_, err := runFigure("2a", webcache.FigureOptions{Scale: 0.02, Seed: 1}, n, false, sess, false)
		if err == nil || !strings.Contains(err.Error(), "replicates") {
			t.Errorf("replicates %d: err %v, want the count refused", n, err)
		}
	}
}
