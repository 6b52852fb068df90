package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"webcache/internal/obs"
)

// The runner resolves the gate from the first argument and parses the
// rest against that gate's own flagset: an unknown gate names the two
// that exist, and a flag that belongs to a different gate (or to a
// deleted mode) is rejected at parse time, before anything runs.
func TestParseBench(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr []string // substrings of the error; nil = must parse
	}{
		{"no gate", nil, []string{"live|chaos"}},
		{"unknown gate", []string{"store"}, []string{`"store"`, "live|chaos"}},
		{"deleted gate", []string{"slo"}, []string{`"slo"`, "live|chaos"}},
		{"old boolean spelling", []string{"-chaos"}, []string{`"-chaos"`, "live|chaos"}},
		{"other gate's flag", []string{"chaos", "-workers", "4"}, []string{"-workers"}},
		{"chaos counts every request", []string{"chaos", "-warmup", "100"}, []string{"-warmup"}},
		{"deleted knob", []string{"live", "-seed", "2"}, []string{"-seed"}},
		{"deleted think time", []string{"live", "-mode", "closed", "-think", "1ms"}, []string{"-think"}},
		{"deleted arrival process", []string{"live", "-arrival", "bursty"}, []string{"-arrival"}},
		{"deleted drain deadline", []string{"live", "-drain", "1s"}, []string{"-drain"}},
		{"deleted span export", []string{"live", "-trace-jsonl", "t.jsonl"}, []string{"-trace-jsonl"}},
		{"p999 cut is a constant", []string{"chaos", "-chaos-min-p999-cut", "1.3"}, []string{"-chaos-min-p999-cut"}},
		{"stray argument", []string{"chaos", "extra"}, []string{`"extra"`}},
		{"live", []string{"live", "-trace", "t.bin", "-mode", "closed", "-workers", "4"}, nil},
		{"chaos", []string{"chaos", "-chaos-scenarios", "poison", "-rate", "750"}, nil},
	} {
		_, _, err := parseBench(tc.args)
		if tc.wantErr == nil {
			if err != nil {
				t.Errorf("%s: parseBench(%q) = %v, want success", tc.name, tc.args, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: parseBench(%q) succeeded, want an error", tc.name, tc.args)
			continue
		}
		for _, want := range tc.wantErr {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, want)
			}
		}
	}
}

// A replicate count below 1 is refused before any scenario runs.
func TestChaosReplicatesRefused(t *testing.T) {
	for _, n := range []string{"0", "-2"} {
		_, g, err := parseBench([]string{"chaos", "-replicates", n})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.run(); err == nil || !strings.Contains(err.Error(), "-replicates") {
			t.Errorf("-replicates %s: run() = %v, want the count refused", n, err)
		}
	}
}

// The option budget: each gate's exact flag list (the shared workload
// block, the topology, the session's and its own), so a flag added or
// dropped shows up here, the way obs.TestSessionFlags pins each tool's
// observability flags.
func TestBenchFlagBudget(t *testing.T) {
	want := map[string][]string{
		"live": {"caches", "clients", "duration", "manifest", "mode", "object-bytes", "objects", "pprof",
			"proxies", "rate", "requests", "tolerance", "trace", "trace-out", "trace-sample", "warmup", "workers"},
		"chaos": {"caches", "chaos-scenarios", "clients", "manifest", "object-bytes", "objects", "pprof",
			"proxies", "rate", "replicates", "requests"},
	}
	if len(benchGates) != len(want) {
		t.Errorf("%d gates are wired, the table lists %d", len(benchGates), len(want))
	}
	for _, entry := range benchGates {
		fs, _, _ := entry.flagSet()
		var got []string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
		if !slices.Equal(got, want[entry.name]) {
			t.Errorf("bench %s binds %v, want %v", entry.name, got, want[entry.name])
		}
	}
}

// Structural drift gate, in the spirit of obs.CheckMetricsDoc: every
// `hiergdd bench <gate> ...` recipe in the Makefile must parse against
// that gate's flagset, so a renamed or removed flag cannot leave a
// dead `make` target behind.  Nothing is run.
func TestMakefileBenchTargetsParse(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	recipes := strings.ReplaceAll(string(data), "\\\n", " ")
	// A shell word: a double-quoted string or a run of non-space bytes.
	word := regexp.MustCompile(`"[^"]*"|\S+`)
	gates := map[string]bool{}
	for _, line := range strings.Split(recipes, "\n") {
		_, after, ok := strings.Cut(line, "./cmd/hiergdd bench ")
		if !ok || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		args := word.FindAllString(after, -1)
		for i, a := range args {
			args[i] = strings.Trim(a, `"`)
		}
		if _, _, err := parseBench(args); err != nil {
			t.Errorf("Makefile recipe `hiergdd bench %s` does not parse: %v", after, err)
		}
		gates[args[0]] = true
	}
	for _, entry := range benchGates {
		if !gates[entry.name] {
			t.Errorf("no Makefile target runs `hiergdd bench %s`", entry.name)
		}
	}
}

// The shared manifest tail, once per gate: the file it writes must
// round-trip through the validating reader under the gate's historical
// `tool` name, with the config echo, notes, registry snapshot and
// workload fingerprint in place.
func TestBenchManifestRoundTrip(t *testing.T) {
	for _, entry := range benchGates {
		path := filepath.Join(t.TempDir(), "BENCH_"+entry.name+".json")
		w, _, err := parseBench([]string{entry.name, "-requests", "300", "-objects", "30", "-clients", "5", "-manifest", path})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := w.generate()
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry("bench-test")
		reg.Gauge("bench.test.gauge").Set(4.5)
		if err := w.finish(tr, reg, map[string]any{"requests": w.requests}, map[string]any{"gate": entry.name}); err != nil {
			t.Fatalf("%s: %v", entry.name, err)
		}
		m, err := obs.ReadManifestFile(path)
		if err != nil {
			t.Fatalf("%s: %v", entry.name, err)
		}
		if m.Tool != entry.tool {
			t.Errorf("%s: manifest tool %q, want %q", entry.name, m.Tool, entry.tool)
		}
		if m.Metrics["bench.test.gauge"] != 4.5 || m.Config["requests"] != 300.0 || m.Notes["gate"] != entry.name {
			t.Errorf("%s: manifest lost content: metrics %v config %v notes %v", entry.name, m.Metrics, m.Config, m.Notes)
		}
		if fp, _ := m.Trace["fingerprint"].(string); !strings.HasPrefix(fp, "fnv1a:") {
			t.Errorf("%s: manifest trace block %v lacks a fingerprint", entry.name, m.Trace)
		}
	}

	// Without -manifest the tail is a no-op, not an error.
	w, _, err := parseBench([]string{"chaos"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.finish(nil, nil, nil, nil); err != nil {
		t.Errorf("finish without -manifest = %v, want nil", err)
	}
}
