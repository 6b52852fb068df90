package pastry

import "testing"

// The routing layer in the simulator's shape: a settled 100-node
// overlay (a sim cluster's size) and object keys from HashUint64, as
// p2p.ObjectKey derives them.  Keys are hashed before the timer starts;
// pastry.HashUint64 has its own probe.
const benchKeys = 4096

func benchOverlay(b *testing.B) (*Overlay, []ID, []ID) {
	o, ids := buildOverlay(b, 100, Config{Seed: 1})
	keys := make([]ID, benchKeys)
	for i := range keys {
		keys[i] = HashUint64(uint64(i))
	}
	return o, ids, keys
}

// BenchmarkRouteFrom routes each key from the live nodes in turn.
func BenchmarkRouteFrom(b *testing.B) {
	o, ids, keys := benchOverlay(b)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, _, err := o.RouteFrom(ids[i%len(ids)], keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// BenchmarkDeliver is the leaf-set step alone, asked at exactly the
// (node, key) pairs those routes ask it at: every node on each route,
// so far-off starts (refused on the range check) and the last hops
// (answered from the brackets) come in their routing proportions.
func BenchmarkDeliver(b *testing.B) {
	o, ids, keys := benchOverlay(b)
	type step struct {
		ls  *LeafSet
		key ID
	}
	var steps []step
	for i, key := range keys {
		_, _, path := o.routeFrom(ids[i%len(ids)], key)
		for _, n := range path {
			steps = append(steps, step{&n.leafs, key})
		}
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		s := steps[i%len(steps)]
		s.ls.Deliver(s.key)
		i++
	}
}
