package sim

import (
	"testing"

	"webcache/internal/invariant"
)

// TestCheckedRunAllSchemes replays a ProWGen trace under every scheme
// (plus the Squirrel baseline) with the invariant subsystem wired in
// and requires zero violations — the end-to-end guarantee that the
// simulator's accounting is internally consistent.
func TestCheckedRunAllSchemes(t *testing.T) {
	tr := testTrace(t, 1)
	schemes := append(AllSchemes(), Squirrel)
	for _, s := range schemes {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			chk := invariant.New(nil)
			res := run(t, tr, Config{
				Scheme:            s,
				ProxyCacheFrac:    0.3,
				ClientsPerCluster: 16,
				Seed:              1,
				Check:             chk,
			})
			if err := chk.Err(); err != nil {
				t.Fatal(err)
			}
			// FC/FC-EC are stateless placement engines: there is no
			// mutable cache state for the oracles to shadow.
			stateless := s == FC || s == FCEC
			if !stateless && res.InvariantChecks == 0 {
				t.Fatal("checking was wired in but no checks ran")
			}
			if res.InvariantViolations != 0 {
				t.Fatalf("Result reports %d violations, Checker reported none", res.InvariantViolations)
			}
		})
	}
}

// TestCheckedRunHierGDVariants stresses the Hier-GD oracles under the
// configurations that bend the receipts flow: Bloom directories (false
// positives), stale digests, client-cache churn with and without
// replacement, and the ablation switches.
func TestCheckedRunHierGDVariants(t *testing.T) {
	tr := testTrace(t, 1)
	variants := map[string]Config{
		"bloom":           {Directory: DirBloom},
		"digests":         {DigestInterval: 5_000},
		"churn":           {FailEvery: 9_000},
		"churn-replace":   {FailEvery: 9_000, ReplaceFailed: true},
		"no-piggyback":    {DisablePiggyback: true},
		"no-diversion":    {DisableDiversion: true},
		"bloom-churn":     {Directory: DirBloom, FailEvery: 9_000},
		"kitchen-sink":    {Directory: DirBloom, DigestInterval: 5_000, FailEvery: 9_000, ReplaceFailed: true},
		"four-proxies":    {NumProxies: 4},
		"warmup-excluded": {WarmupRequests: 10_000},
	}
	for name, cfg := range variants {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			chk := invariant.New(nil)
			cfg.Scheme = HierGD
			cfg.ProxyCacheFrac = 0.3
			cfg.ClientsPerCluster = 16
			cfg.Seed = 1
			cfg.Check = chk
			run(t, tr, cfg)
			if err := chk.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckedRunMatchesUnchecked pins the zero-interference guarantee:
// wiring the invariant subsystem in must not change a single simulated
// outcome, only observe it.
func TestCheckedRunMatchesUnchecked(t *testing.T) {
	tr := testTrace(t, 1)
	for _, s := range []Scheme{SCEC, HierGD, Squirrel} {
		base := Config{Scheme: s, ProxyCacheFrac: 0.3, ClientsPerCluster: 16, Seed: 1}
		plain := run(t, tr, base)
		checked := base
		checked.Check = invariant.New(nil)
		got := run(t, tr, checked)
		if got.AvgLatency != plain.AvgLatency || got.Sources != plain.Sources {
			t.Fatalf("%v: checked run diverged: latency %v vs %v, sources %v vs %v",
				s, got.AvgLatency, plain.AvgLatency, got.Sources, plain.Sources)
		}
		if err := checked.Check.Err(); err != nil {
			t.Fatal(err)
		}
	}
}
