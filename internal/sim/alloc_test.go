//go:build !race

package sim

// Zero-alloc gates on the simulator's steady-state inner loop.  After
// one warmup replay, a serve must not touch the heap: the policy
// scratch buffers (cache.Policy.Add) absorb every per-request record,
// and the hoisted lookup tables (fc.go's dense placement, tiered.go
// missLFU) replace the per-request map and interface work.  testing.AllocsPerRun floor-divides total mallocs by
// runs, so a rare map-rehash still passes while any per-request
// allocation fails the gate at >= 1.
//
// The file is excluded under the race detector (make check), whose
// instrumentation allocates on paths the production build does not.

import (
	"testing"
)

// serveSteadyStateAllocs warms eng with one full replay and then
// measures allocations per serve over a second replay.
func serveSteadyStateAllocs(t *testing.T, cfg Config) float64 {
	t.Helper()
	tr := testTrace(t, 1)
	cfg.fillDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	sz := computeSizing(tr, cfg)
	eng, err := newEngine(tr, cfg, sz)
	if err != nil {
		t.Fatal(err)
	}
	replay := func() {
		for _, r := range tr.Requests {
			at := sz.clients[r.Client]
			eng.serve(r.Object, r.Size, at.proxy, at.member, nil)
		}
	}
	replay() // warm caches, popularity maps, and memoized tables

	i := 0
	return testing.AllocsPerRun(len(tr.Requests), func() {
		r := tr.Requests[i%len(tr.Requests)]
		i++
		at := sz.clients[r.Client]
		eng.serve(r.Object, r.Size, at.proxy, at.member, nil)
	})
}

// TestServeZeroAllocLFU gates the NC/SC/EC engine family: the per-proxy
// tiered LFU caches with inter-proxy cooperation, under perfect
// knowledge and through the digest-gated peer tier.
func TestServeZeroAllocLFU(t *testing.T) {
	for _, interval := range []int{0, 1_000} {
		cfg := Config{Scheme: SCEC, ProxyCacheFrac: 0.3, ClientsPerCluster: 16, Seed: 1, DigestInterval: interval}
		if allocs := serveSteadyStateAllocs(t, cfg); allocs != 0 {
			t.Errorf("SC-EC (digest interval %d) steady-state serve allocates %.1f objects/request, want 0", interval, allocs)
		}
	}
}

// TestServeZeroAllocPastry gates the engines that route through a
// Pastry client cluster: Hier-GD (directory, lookups, pass-downs) and
// Squirrel (one route per request to the home node, a store on every
// miss).  Node tables, routes, object keys and receipts all come from
// scratch the overlay and cluster keep.
func TestServeZeroAllocPastry(t *testing.T) {
	for _, s := range []Scheme{HierGD, Squirrel} {
		cfg := Config{Scheme: s, ProxyCacheFrac: 0.3, ClientsPerCluster: 16, Seed: 1}
		if allocs := serveSteadyStateAllocs(t, cfg); allocs != 0 {
			t.Errorf("%v steady-state serve allocates %.1f objects/request, want 0", s, allocs)
		}
	}
}
