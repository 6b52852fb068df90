package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"webcache/internal/trace"
)

func unit(obj trace.ObjectID) Entry { return Entry{Obj: obj, Size: 1, Cost: 1} }

// namedPolicy is one row of the policy tables.
type namedPolicy struct {
	name string
	Policy
}

// allPolicies lists a policy of each kind.  The "lfu" row is perfect
// LFU as the simulator builds it, over a history with a universe:
// ids below 64 take the direct path, larger ones hash.
func allPolicies(capacity uint64) []namedPolicy {
	return []namedPolicy{
		{"lru", NewLRU(capacity)},
		{"lfu", NewPerfectLFUShared(capacity, NewHistory(64))},
		{"lfu-perfect", NewPerfectLFU(capacity)},
		{"greedy-dual", NewGreedyDual(capacity)},
	}
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	f()
}

func TestPolicyBasicCycle(t *testing.T) {
	for _, p := range allPolicies(3) {
		t.Run(p.name, func(t *testing.T) {
			if p.Access(1) {
				t.Fatal("hit on empty cache")
			}
			if ev := p.Add(unit(1)); len(ev) != 0 {
				t.Fatalf("eviction on non-full cache: %v", ev)
			}
			if !p.Access(1) {
				t.Fatal("miss after Add")
			}
			if !p.Contains(1) || p.Len() != 1 || p.Used() != 1 {
				t.Fatalf("state wrong: contains=%v len=%d used=%d", p.Contains(1), p.Len(), p.Used())
			}
			e, ok := p.Peek(1)
			if !ok || e.Obj != 1 {
				t.Fatalf("Peek = %+v %v", e, ok)
			}
			e, ok = p.Remove(1)
			if !ok || e.Obj != 1 || p.Len() != 0 || p.Used() != 0 {
				t.Fatalf("Remove = %+v %v len=%d", e, ok, p.Len())
			}
			if _, ok := p.Remove(1); ok {
				t.Fatal("double remove succeeded")
			}
		})
	}
}

func TestPolicyCapacityNeverExceeded(t *testing.T) {
	for _, p := range allPolicies(5) {
		t.Run(p.name, func(t *testing.T) {
			for i := 0; i < 100; i++ {
				p.Add(unit(trace.ObjectID(i)))
				if p.Used() > p.Capacity() {
					t.Fatalf("used %d > capacity %d", p.Used(), p.Capacity())
				}
			}
			if p.Len() != 5 {
				t.Fatalf("len = %d, want 5", p.Len())
			}
		})
	}
}

func TestPolicyOversizeEntryRejected(t *testing.T) {
	for _, p := range allPolicies(4) {
		t.Run(p.name, func(t *testing.T) {
			p.Add(unit(1))
			ev := p.Add(Entry{Obj: 2, Size: 10, Cost: 1})
			if len(ev) != 0 {
				t.Fatalf("oversize add evicted %v", ev)
			}
			if p.Contains(2) {
				t.Fatal("oversize entry cached")
			}
			if !p.Contains(1) {
				t.Fatal("existing entry disturbed")
			}
		})
	}
}

func TestPolicyDuplicateAddPanics(t *testing.T) {
	for _, p := range allPolicies(4) {
		t.Run(p.name, func(t *testing.T) {
			p.Add(unit(1))
			assertPanics(t, "dup add", func() { p.Add(unit(1)) })
		})
	}
}

func TestPolicyVariableSizes(t *testing.T) {
	for _, p := range allPolicies(10) {
		t.Run(p.name, func(t *testing.T) {
			p.Add(Entry{Obj: 1, Size: 4, Cost: 1})
			p.Add(Entry{Obj: 2, Size: 4, Cost: 1})
			ev := p.Add(Entry{Obj: 3, Size: 6, Cost: 1})
			if len(ev) == 0 {
				t.Fatal("no eviction when over capacity")
			}
			total := uint64(0)
			for _, e := range ev {
				total += uint64(e.Size)
			}
			if p.Used() > p.Capacity() {
				t.Fatalf("used %d > cap %d (evicted %d)", p.Used(), p.Capacity(), total)
			}
		})
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := NewLRU(3)
	c.Add(unit(1))
	c.Add(unit(2))
	c.Add(unit(3))
	c.Access(1) // 1 now MRU; LRU order: 2,3,1
	ev := c.Add(unit(4))
	if len(ev) != 1 || ev[0].Obj != 2 {
		t.Fatalf("evicted %v, want object 2", ev)
	}
	ev = c.Add(unit(5))
	if len(ev) != 1 || ev[0].Obj != 3 {
		t.Fatalf("evicted %v, want object 3", ev)
	}
}

func TestLFUEvictsLeastFrequent(t *testing.T) {
	c := NewPerfectLFU(3)
	c.Add(unit(1))
	c.Add(unit(2))
	c.Add(unit(3))
	c.Access(1)
	c.Access(1)
	c.Access(2)
	// freqs: 1->3, 2->2, 3->1
	ev := c.Add(unit(4))
	if len(ev) != 1 || ev[0].Obj != 3 {
		t.Fatalf("evicted %v, want 3", ev)
	}
	// 4 enters with freq 1 → next victim.
	ev = c.Add(unit(5))
	if len(ev) != 1 || ev[0].Obj != 4 {
		t.Fatalf("evicted %v, want 4", ev)
	}
}

func TestPerfectLFUKeepsHistory(t *testing.T) {
	c := NewPerfectLFU(2)
	c.Add(unit(1))
	c.Access(1)
	c.Access(1) // count 3
	c.Remove(1)
	c.RecordMiss(1) // count 4 while absent
	c.Add(unit(1))  // count 5
	if got := c.Frequency(1); got != 5 {
		t.Fatalf("perfect LFU frequency = %d, want 5", got)
	}
}

func TestPerfectLFUEvictionUsesHistory(t *testing.T) {
	c := NewPerfectLFU(2)
	// Warm history: object 1 referenced 5 times historically.
	for i := 0; i < 5; i++ {
		c.RecordMiss(1)
	}
	c.Add(unit(1)) // count 6
	c.Add(unit(2)) // count 1
	ev := c.Add(unit(3))
	if len(ev) != 1 || ev[0].Obj != 2 {
		t.Fatalf("evicted %v, want 2 (history protects 1)", ev)
	}
}

func TestGreedyDualEvictsMinH(t *testing.T) {
	c := NewGreedyDual(2)
	c.Add(Entry{Obj: 1, Size: 1, Cost: 10}) // H = 10
	c.Add(Entry{Obj: 2, Size: 1, Cost: 1})  // H = 1
	ev := c.Add(Entry{Obj: 3, Size: 1, Cost: 5})
	if len(ev) != 1 || ev[0].Obj != 2 {
		t.Fatalf("evicted %v, want 2 (min cost)", ev)
	}
	// L is now 1; H(3) = 1 + 5 = 6 < H(1) = 10.
	if l := c.Inflation(); l != 1 {
		t.Fatalf("inflation = %g, want 1", l)
	}
	ev = c.Add(Entry{Obj: 4, Size: 1, Cost: 20})
	if len(ev) != 1 || ev[0].Obj != 3 {
		t.Fatalf("evicted %v, want 3", ev)
	}
}

func TestGreedyDualHitRefreshesH(t *testing.T) {
	c := NewGreedyDual(2)
	c.Add(Entry{Obj: 1, Size: 1, Cost: 2})
	c.Add(Entry{Obj: 2, Size: 1, Cost: 3})
	c.Add(Entry{Obj: 3, Size: 1, Cost: 2}) // evicts 1 (H=2), L=2, H(3)=4
	if c.Contains(1) {
		t.Fatal("1 not evicted")
	}
	c.Access(2) // H(2) = L + 3 = 5
	h2, _ := c.HValue(2)
	h3, _ := c.HValue(3)
	if h2 != 5 || h3 != 4 {
		t.Fatalf("H values = %g, %g; want 5, 4", h2, h3)
	}
	ev := c.Add(Entry{Obj: 4, Size: 1, Cost: 100})
	if len(ev) != 1 || ev[0].Obj != 3 {
		t.Fatalf("evicted %v, want 3 (stale H)", ev)
	}
}

func TestGreedyDualSizeAware(t *testing.T) {
	c := NewGreedyDual(10)
	c.Add(Entry{Obj: 1, Size: 5, Cost: 5})  // H = 1
	c.Add(Entry{Obj: 2, Size: 1, Cost: 10}) // H = 10
	ev := c.Add(Entry{Obj: 3, Size: 5, Cost: 100})
	// Needs 5 units: evicting 1 (H=1, frees 5) suffices.
	if len(ev) != 1 || ev[0].Obj != 1 {
		t.Fatalf("evicted %v, want [1]", ev)
	}
}

func TestGreedyDualInflationMonotone(t *testing.T) {
	c := NewGreedyDual(4)
	rng := rand.New(rand.NewSource(1))
	last := 0.0
	for i := 0; i < 1000; i++ {
		obj := trace.ObjectID(rng.Intn(50))
		if !c.Access(obj) {
			c.Add(Entry{Obj: obj, Size: 1, Cost: 1 + rng.Float64()*9})
		}
		if l := c.Inflation(); l < last {
			t.Fatalf("inflation decreased: %g -> %g", last, l)
		} else {
			last = l
		}
	}
}

// Property: under random unit-size workloads every policy (a) never
// exceeds capacity, (b) reports Len == number of distinct cached
// objects, and (c) evicted+cached object sets partition the inserted
// set.
func TestPropPolicyInvariants(t *testing.T) {
	mk := map[string]func(uint64) Policy{
		"lru":         func(c uint64) Policy { return NewLRU(c) },
		"lfu":         func(c uint64) Policy { return NewPerfectLFUShared(c, NewHistory(10)) },
		"lfu-perfect": func(c uint64) Policy { return NewPerfectLFU(c) },
		"greedy-dual": func(c uint64) Policy { return NewGreedyDual(c) },
	}
	for name, ctor := range mk {
		f := func(seed int64, n uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			capacity := uint64(rng.Intn(8) + 1)
			p := ctor(capacity)
			inCache := map[trace.ObjectID]bool{}
			for i := 0; i < int(n); i++ {
				obj := trace.ObjectID(rng.Intn(20))
				if p.Access(obj) {
					if !inCache[obj] {
						return false // hit on uncached object
					}
					continue
				}
				if inCache[obj] {
					return false // miss on cached object
				}
				for _, ev := range p.Add(Entry{Obj: obj, Size: 1, Cost: 1 + rng.Float64()}) {
					if !inCache[ev.Obj] {
						return false // evicted something not cached
					}
					delete(inCache, ev.Obj)
				}
				inCache[obj] = true
				if p.Used() > p.Capacity() || p.Len() != len(inCache) {
					return false
				}
			}
			for o := range inCache {
				if !p.Contains(o) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Greedy-dual should beat LRU and LFU on a mixed-cost workload where
// popular objects are expensive — the Korupolu & Dahlin observation
// that motivates Hier-GD (§3).
func TestGreedyDualBeatsLRUOnMixedCosts(t *testing.T) {
	run := func(p Policy) float64 {
		rng := rand.New(rand.NewSource(42))
		totalCost := 0.0
		for i := 0; i < 20000; i++ {
			var obj trace.ObjectID
			var cost float64
			if rng.Float64() < 0.5 {
				obj = trace.ObjectID(rng.Intn(30)) // popular, expensive
				cost = 10
			} else {
				obj = trace.ObjectID(30 + rng.Intn(300)) // unpopular, cheap
				cost = 1
			}
			if !p.Access(obj) {
				totalCost += cost
				p.Add(Entry{Obj: obj, Size: 1, Cost: cost})
			}
		}
		return totalCost
	}
	gd := run(NewGreedyDual(40))
	lru := run(NewLRU(40))
	if gd >= lru {
		t.Errorf("greedy-dual cost %g >= LRU cost %g", gd, lru)
	}
}
