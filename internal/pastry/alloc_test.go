//go:build !race

package pastry

import "testing"

// TestRouteFromAllocsPerRun: a route on a settled overlay does not
// touch the heap — the path is the overlay's scratch and no leaf-set
// or table question copies a member list.  (Excluded under the race
// detector, whose instrumentation allocates; run by `make sim-alloc`.)
func TestRouteFromAllocsPerRun(t *testing.T) {
	o, ids := buildOverlay(t, 100, Config{Seed: 1})
	route := func(i int) {
		if _, _, err := o.RouteFrom(ids[i%len(ids)], HashUint64(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ { // grow the path scratch to its working size
		route(i)
	}
	i := 0
	if allocs := testing.AllocsPerRun(2000, func() { route(i); i++ }); allocs != 0 {
		t.Errorf("RouteFrom allocates %.1f objects per route, want 0", allocs)
	}
}
