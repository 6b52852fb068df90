//go:build !race

package p2p

import (
	"testing"

	"webcache/internal/trace"
)

// The pass-down and lookup paths of a warmed cluster do not touch the
// heap: object keys come from the cluster's table, the route from the
// overlay's scratch, the diversion candidates and the receipt's
// eviction list from the cluster's.  (Excluded under the race
// detector, whose instrumentation allocates; run by `make sim-alloc`.)

// warmedCluster fills a 100-client cluster to capacity, so every
// further pass-down of a new object is a greedy-dual replacement.
func warmedCluster(t *testing.T) (c *Cluster, stored int) {
	t.Helper()
	c = testCluster(t, 100, 20)
	stored = 4000 // twice the capacity: every cache and every leaf set is full
	for i := 0; i < stored; i++ {
		if _, err := c.StoreEvicted(entry(trace.ObjectID(i)), i%100, true); err != nil {
			t.Fatal(err)
		}
	}
	return c, stored
}

func TestLookupHitAllocsPerRun(t *testing.T) {
	c, stored := warmedCluster(t)
	var resident []trace.ObjectID
	for i := 0; i < stored; i++ {
		if c.Contains(trace.ObjectID(i)) {
			resident = append(resident, trace.ObjectID(i))
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		r, err := c.Lookup(resident[i%len(resident)], i%100)
		if err != nil || !r.Found {
			t.Fatalf("lookup of resident object %d: found=%v err=%v", resident[i%len(resident)], r.Found, err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("Lookup hit allocates %.1f objects per call, want 0", allocs)
	}
}

func TestStoreEvictedReplacementAllocsPerRun(t *testing.T) {
	c, stored := warmedCluster(t)
	before := c.Stats().Replacements
	next := stored
	const runs = 2000
	allocs := testing.AllocsPerRun(runs, func() {
		r, err := c.StoreEvicted(entry(trace.ObjectID(next)), next%100, true)
		if err != nil || !r.StoredOK || len(r.Evicted) == 0 {
			t.Fatalf("pass-down of new object %d: %+v, err %v; want a replacement", next, r, err)
		}
		next++
	})
	if got := c.Stats().Replacements - before; got != runs+1 { // AllocsPerRun warms up with one extra call
		t.Fatalf("%d replacements in %d pass-downs", got, runs+1)
	}
	if allocs != 0 {
		t.Errorf("StoreEvicted replacement allocates %.1f objects per call, want 0", allocs)
	}
}
