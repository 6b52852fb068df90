//go:build !race

package cache

// Zero-alloc gates on the policies' steady state (make sim-alloc).  A
// full cache serves a hit, and replaces one object by another, without
// touching the heap: a victim's slab slot (LRU: its list node) goes to
// a free list and the next Add takes it from there, and Add's return
// value is the policy's scratch slice.  testing.AllocsPerRun
// floor-divides total mallocs by runs, so a rare doubling passes while
// one allocation per operation fails: the id -> slot table's size and
// the slab's length are checked across the measured loops too.  FC's
// placement has the same gate for a re-placement (below).
//
// Excluded under the race detector, whose instrumentation allocates on
// paths the production build does not.

import (
	"testing"

	"webcache/internal/trace"
)

func TestPolicyAllocsPerRun(t *testing.T) {
	const capacity = 512
	sparse := func(i int) trace.ObjectID { return trace.ObjectID(i) * 0x9e3779b97f4a7c15 }
	dense := func(i int) trace.ObjectID { return trace.ObjectID(i) }
	for _, row := range []struct {
		name    string
		p       Policy
		id      func(int) trace.ObjectID
		classes int // distinct costs the entries cycle through
	}{
		{"lru", NewLRU(capacity), sparse, 5},
		{"lfu-perfect", NewPerfectLFU(capacity), sparse, 5},
		// Perfect LFU as the simulator builds it: every id the loops
		// use lies below the universe, on the direct path.
		{"lfu-perfect-dense", NewPerfectLFUShared(capacity, NewHistory(2*capacity)), dense, 5},
		{"greedy-dual", NewGreedyDual(capacity), sparse, 5},
		// Greedy-dual as the simulator's proxies build it.
		{"greedy-dual-dense", NewGreedyDualDense(capacity, 2*capacity), dense, 4},
		// More than manyClasses ratio classes (checked below).
		{"greedy-dual-many-classes", NewGreedyDual(capacity), sparse, 3 * manyClasses},
		{"gdsf", NewGDSF(capacity), sparse, 5},
	} {
		p, name := row.p, row.name
		entry := func(i int) Entry {
			return Entry{Obj: row.id(i), Size: 1, Cost: float64(1 + i%row.classes)}
		}
		// Warm up on twice as many ids as fit, twice over, so the table,
		// the slab, the scratch slice and (perfect LFU) the history have
		// all seen every id the measured loops use.
		next := 0
		fill := func() {
			if e := entry(next % (2 * capacity)); !p.Contains(e.Obj) {
				p.Add(e)
			}
			next++
		}
		for next < 4*capacity {
			fill()
		}
		if p.Len() != capacity {
			t.Fatalf("%s: warm-up left %d of %d objects", name, p.Len(), capacity)
		}

		if gd := greedyDualOf(p); gd != nil && row.classes > manyClasses && len(gd.heads) <= manyClasses {
			t.Fatalf("%s: %d ratio classes live after warm-up, want more than %d", name, len(gd.heads), manyClasses)
		}

		tables := tableSizes(p)
		hit := p.Objects()[0]
		if a := testing.AllocsPerRun(2000, func() {
			if !p.Access(hit) {
				t.Fatalf("%s: %d fell out", name, hit)
			}
		}); a != 0 {
			t.Errorf("%s: steady-state hit allocates %.0f per Access, want 0", name, a)
		}

		evicted := 0
		if a := testing.AllocsPerRun(2000, func() {
			for p.Contains(entry(next % (2 * capacity)).Obj) {
				next++
			}
			evicted += len(p.Add(entry(next % (2 * capacity))))
		}); a != 0 {
			t.Errorf("%s: evicting Add allocates %.0f per Add, want 0", name, a)
		}
		if evicted < 2000 {
			t.Errorf("%s: only %d of 2000 measured Adds evicted", name, evicted)
		}
		if n := slabLen(p); n > capacity {
			t.Errorf("%s: slab has %d slots for %d unit-size objects: released slots are not recycled", name, n, capacity)
		}
		if got := tableSizes(p); got != tables {
			t.Errorf("%s: id -> slot tables went from %v to %v entries across the measured loops", name, tables, got)
		}
	}
}

// slabLen is the number of object slots a policy ever allocated (for
// LFU, of object or bucket slots, for greedy-dual and GDSF of object or
// class slots, whichever is more).
func slabLen(p Policy) int {
	switch c := p.(type) {
	case *LRU:
		return len(c.nodes) - 1 // the sentinel holds no object
	case *LFU:
		return max(len(c.nodes), len(c.buckets))
	}
	if gd := greedyDualOf(p); gd != nil {
		return max(len(gd.nodes), len(gd.classes))
	}
	return 0
}

// tableSizes is the entry count of p's id -> slot table and, for
// perfect LFU, of its history's, for greedy-dual and GDSF of their
// ratio -> class table.
func tableSizes(p Policy) [2]int {
	switch c := p.(type) {
	case *LRU:
		return [2]int{len(c.index.ents)}
	case *LFU:
		return [2]int{len(c.slot.ents), len(c.history.index.ents)}
	}
	if gd := greedyDualOf(p); gd != nil {
		return [2]int{len(gd.slot.ents), len(gd.classOf.ents)}
	}
	return [2]int{}
}

// A re-placement on a warmed Placement with the same shapes allocates
// nothing: the candidate list, the radix sort's second buffer and the
// stale heap are all reused, and the two candidate buffers stay
// distinct arrays.
func TestPlacementAllocsPerRun(t *testing.T) {
	const numObjects = 2000
	in := PlacementInput{
		Freq:          [][]float64{make([]float64, numObjects), make([]float64, numObjects)},
		ServerLatency: 1,
		RemoteLatency: 0.1,
		Cooperative:   true,
		Sizes:         make([]uint32, numObjects),
	}
	for p := range in.Freq {
		in.Tiers = append(in.Tiers,
			Tier{Proxy: p, Capacity: 300, HitLatency: 0.05},
			Tier{Proxy: p, Capacity: 600, HitLatency: 0.07})
		for o := range in.Freq[p] {
			in.Freq[p][o] = float64((numObjects/(o+1) + o*(p+3)) % 9)
		}
	}
	for o := range in.Sizes {
		in.Sizes[o] = uint32(1 + o%4)
	}
	var pl Placement
	if err := pl.Compute(in); err != nil {
		t.Fatal(err)
	}
	if len(pl.stale) == 0 && cap(pl.stale) == 0 {
		t.Fatal("no candidate went stale: the heap is not exercised")
	}
	buffers := [2]int{cap(pl.cands), cap(pl.radix)}
	if a := testing.AllocsPerRun(20, func() {
		if err := pl.Compute(in); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("re-placement allocates %.0f per Compute, want 0", a)
	}
	if got := [2]int{cap(pl.cands), cap(pl.radix)}; got != buffers {
		t.Errorf("candidate buffers went from capacities %v to %v", buffers, got)
	}
	if len(pl.cands) == 0 || &pl.cands[:1][0] == &pl.radix[:1][0] {
		t.Error("the candidate list and the radix buffer share an array")
	}
}
