package cache

import (
	"math"
	"testing"

	"webcache/internal/trace"
)

// A zero-size entry used to reach hvalue's Cost/Size division and pin
// the object with an +Inf H value; the shared add-validation path now
// rejects it for every policy.
func TestAddZeroSizeRejected(t *testing.T) {
	policies := []Policy{
		NewGreedyDual(10),
		NewGDSF(10),
		NewLRU(10),
		NewPerfectLFU(10),
		NewPerfectLFUShared(10, NewHistory(4)),
	}
	for _, p := range policies {
		if ev := p.Add(Entry{Obj: 1, Size: 0, Cost: 1}); len(ev) != 0 {
			t.Errorf("%s: zero-size Add evicted %v", p.Name(), ev)
		}
		if p.Contains(1) {
			t.Errorf("%s: zero-size entry was cached", p.Name())
		}
		if p.Len() != 0 || p.Used() != 0 {
			t.Errorf("%s: len=%d used=%d after rejected add", p.Name(), p.Len(), p.Used())
		}
	}
}

// Even if a zero-size object slipped into a greedy-dual heap it would
// never be evictable; pin that the rejection keeps all H values finite
// while the cache churns.
func TestGreedyDualHValuesStayFinite(t *testing.T) {
	c := NewGreedyDual(4)
	c.Add(Entry{Obj: 1, Size: 0, Cost: 5}) // rejected
	for obj := 2; obj < 20; obj++ {
		c.Add(Entry{Obj: trace.ObjectID(obj), Size: 1, Cost: float64(obj)})
		for _, o := range c.Objects() {
			h, ok := c.HValue(o)
			if !ok {
				t.Fatalf("object %d missing from heap", o)
			}
			if math.IsInf(h, 0) || math.IsNaN(h) {
				t.Fatalf("object %d has non-finite H %v", o, h)
			}
		}
	}
	if c.Contains(1) {
		t.Error("zero-size object resident after churn")
	}
}
