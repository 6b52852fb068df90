// Bench-manifest hook: with WEBCACHE_BENCH_MANIFEST=path set, every
// custom metric the benchmarks report is mirrored into an obs registry
// and written as a run-manifest JSON document when the test binary
// exits, e.g.
//
//	WEBCACHE_BENCH_MANIFEST=bench.json go test -bench=Piggyback -benchtime=1x -run '^$' .
//
// so benchmark results share the schema (METRICS.md) that webcachesim
// -manifest uses, and runs can be diffed mechanically.
package webcache_test

import (
	"fmt"
	"os"
	"testing"

	"webcache/internal/obs"
)

var (
	benchManifestPath = os.Getenv("WEBCACHE_BENCH_MANIFEST")
	benchReg          *obs.Registry
	benchManifest     *obs.Manifest
)

func init() {
	if benchManifestPath != "" {
		benchReg = obs.NewRegistry("bench")
		benchManifest = obs.NewManifest("go-test-bench")
	}
}

// reportMetric forwards to b.ReportMetric and mirrors the value into
// the bench registry as "bench.<benchmark>.<unit>" (a no-op without
// WEBCACHE_BENCH_MANIFEST, since the nil registry discards writes).
func reportMetric(b *testing.B, value float64, unit string) {
	b.ReportMetric(value, unit)
	benchReg.Gauge("bench." + b.Name() + "." + unit).Set(value)
}

func TestMain(m *testing.M) {
	code := m.Run()
	if benchManifest != nil {
		benchManifest.Finish(benchReg)
		if err := benchManifest.WriteFile(benchManifestPath); err != nil {
			fmt.Fprintln(os.Stderr, "bench manifest:", err)
			if code == 0 {
				code = 1
			}
		}
	}
	os.Exit(code)
}
