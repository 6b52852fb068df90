// Doc-drift gate for the library-level metric namespaces: one smoke
// run per subsystem, then METRICS.md is held against the names the
// registry actually saw — both directions (an undocumented
// registration, or a documented name nothing registers, both fail).
// Each tool's own test suite covers its namespace the same way
// (loadgen, httpcache, overlay, tracegen, figure).
package webcache_test

import (
	"os"
	"testing"

	"webcache"
	"webcache/internal/cache"
	"webcache/internal/invariant"
	"webcache/internal/obs"
)

// misreportingPolicy wraps a real policy but lies about Used(), so the
// invariant checker provably fires and registers the
// check.violations.* counters the doc documents.
type misreportingPolicy struct{ cache.Policy }

func (l misreportingPolicy) Used() uint64 { return l.Policy.Used() + 1 }

func TestMetricsDocLibraryNamespaces(t *testing.T) {
	md, err := os.ReadFile("METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	reg := webcache.NewMetricsRegistry("doc-smoke")
	chk := webcache.NewChecker(reg)

	// core.sweep.* and most of sim.*: one checked figure point drives
	// the worker pool, the NC baseline, and full Result publication.
	if _, err := webcache.RunFigure("5a", webcache.FigureOptions{
		Scale: 0.02,
		Fracs: []float64{0.5},
		Seed:  1,
		Obs:   reg,
		Check: chk,
	}); err != nil {
		t.Fatal(err)
	}

	// trace.*: a span-traced simulator run, folded in once at the end
	// exactly like webcachesim -run -trace-out does.
	tracer := webcache.NewSpanTracer(webcache.SpanTracerOptions{Origin: "doc-smoke", SampleEvery: 25})
	tr, err := webcache.GenerateWorkload(webcache.WorkloadConfig{
		NumRequests: 30_000, NumObjects: 1_000, NumClients: 200, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := webcache.Run(tr, webcache.Config{
		Scheme: webcache.HierGD, ProxyCacheFrac: 0.3, Seed: 1, Obs: reg, Tracer: tracer,
	}); err != nil {
		t.Fatal(err)
	}
	tracer.PublishMetrics(reg)

	// check.violations and check.violations.<layer> only register when
	// an invariant actually fails; prove the wiring with a policy whose
	// accounting is broken on purpose.
	p := invariant.WrapPolicy(misreportingPolicy{cache.NewGreedyDual(64)}, chk, "doc-smoke")
	p.Add(cache.Entry{Obj: 1, Size: 4, Cost: 1})
	if chk.ViolationCount() == 0 {
		t.Fatal("deliberately broken policy triggered no violation")
	}

	var names []string
	for _, m := range reg.Snapshot() {
		names = append(names, m.Name)
	}
	if err := obs.CheckMetricsDoc(md, names, "sim", "core.sweep", "check", "trace"); err != nil {
		t.Fatal(err)
	}
}
