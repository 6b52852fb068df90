package obs

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"webcache/internal/trace"
)

// TestSessionFlags lists every command's observability flags: a flag
// added to or dropped from any command's session fails here.
func TestSessionFlags(t *testing.T) {
	want := map[string][]string{
		"webcachesim":   {"cpuprofile", "manifest", "memprofile", "metrics", "progress", "trace-out", "trace-sample"},
		"overlay":       {"cpuprofile", "manifest", "memprofile", "metrics", "progress"},
		"tracegen":      {"cpuprofile", "manifest", "memprofile"},
		"hiergdd-proxy": {"pprof", "trace-out", "trace-sample"},
		"hiergdd-cache": {"pprof", "trace-out", "trace-sample"},
		"hiergdd-bench": {"manifest", "pprof", "trace-out", "trace-sample"},
		"hiergdd-chaos": {"manifest", "pprof"},
	}
	if len(tools) != len(want) {
		t.Errorf("%d tools are wired, the table lists %d", len(tools), len(want))
	}
	for tool, names := range want {
		fs := flag.NewFlagSet(tool, flag.ContinueOnError)
		NewSession(fs, tool)
		var got []string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
		if !slices.Equal(got, names) {
			t.Errorf("%s binds %v, want %v", tool, got, names)
		}
	}
}

// startSession binds tool's session on a fresh flag set, parses args
// and starts it.
func startSession(t *testing.T, tool string, args ...string) *Session {
	t.Helper()
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	s := NewSession(fs, tool)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s
}

// Without flags a command's session records nothing and Close writes
// nothing; a command that keeps its registry on still gets one.
func TestSessionOffByDefault(t *testing.T) {
	s := startSession(t, "webcachesim")
	if s.Reg != nil || s.Tracer != nil || s.JoinTracer("daemon") != nil {
		t.Fatalf("default session opened registry %v tracer %v", s.Reg, s.Tracer)
	}
	if step, _ := s.Progress("x"); step != nil {
		t.Fatal("progress callback without -progress")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if startSession(t, "hiergdd-proxy").Reg == nil {
		t.Fatal("daemon session has no registry for /metrics")
	}
}

// The whole tail once: the driver's and a joined collector's traces in
// one export, their totals in the registry, and a manifest that carries
// config, notes and the trace block and reads back.
func TestSessionRunRecord(t *testing.T) {
	dir := t.TempDir()
	man, out := filepath.Join(dir, "m.json"), filepath.Join(dir, "t.json")
	s := startSession(t, "hiergdd-bench", "-manifest", man, "-trace-out", out, "-trace-sample", "1")
	daemon := s.JoinTracer("daemon")
	root := s.Tracer.StartTrace("request", 0)
	daemon.StartTraceID(root.TraceID(), "fetch").FinishWall("proxy")
	root.FinishWall("proxy")
	s.SetConfig("requests", 1)
	s.SetNote("gate", "live")
	tr := &trace.Trace{Requests: []trace.Request{{Client: 0, Object: 0, Size: 1}}, NumObjects: 1, NumClients: 1}
	s.SetTrace(tr, map[string]any{"distinct_clients": 1})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	m, err := ReadManifestFile(man)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tool != "hiergdd-bench" || m.Config["requests"] != 1.0 || m.Notes["gate"] != "live" {
		t.Fatalf("manifest tool %q config %v notes %v", m.Tool, m.Config, m.Notes)
	}
	if m.Metrics["trace.sampled"] != 1 || m.Metrics["trace.joined"] != 1 {
		t.Fatalf("tracer totals not folded in: %v", m.Metrics)
	}
	if fp, _ := m.Trace["fingerprint"].(string); !strings.HasPrefix(fp, "fnv1a:") || m.Trace["requests"] != 1.0 || m.Trace["distinct_clients"] != 1.0 {
		t.Fatalf("trace block %v", m.Trace)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(data); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), `"cat":"request"`); n != 2 {
		t.Fatalf("chrome export holds %d records, want the root and its joined hop", n)
	}
}
