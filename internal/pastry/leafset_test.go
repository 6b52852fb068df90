package pastry

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func idNum(v uint64) ID { return ID{0, v} }

func TestLeafSetInsertBothSides(t *testing.T) {
	ls := NewLeafSet(idNum(100), 4)
	if !ls.Insert(idNum(90)) || !ls.Insert(idNum(110)) {
		t.Fatal("insert failed")
	}
	if ls.Insert(idNum(110)) {
		t.Error("duplicate insert accepted")
	}
	if ls.Insert(idNum(100)) {
		t.Error("owner insert accepted")
	}
	if ls.Len() != 2 {
		t.Errorf("len = %d, want 2", ls.Len())
	}
}

func TestLeafSetKeepsClosest(t *testing.T) {
	ls := NewLeafSet(idNum(1000), 4) // 2 per side
	for _, v := range []uint64{900, 950, 990, 1010, 1050, 1100} {
		ls.Insert(idNum(v))
	}
	members := ls.Members()
	want := map[ID]bool{idNum(990): true, idNum(950): true, idNum(1010): true, idNum(1050): true}
	if len(members) != 4 {
		t.Fatalf("members = %v", members)
	}
	for _, m := range members {
		if !want[m] {
			t.Errorf("unexpected member %v", m)
		}
	}
}

func TestLeafSetRemove(t *testing.T) {
	ls := NewLeafSet(idNum(100), 4)
	ls.Insert(idNum(90))
	ls.Insert(idNum(110))
	if !ls.Remove(idNum(90)) {
		t.Error("remove existing failed")
	}
	if ls.Remove(idNum(90)) {
		t.Error("double remove succeeded")
	}
	if ls.Contains(idNum(90)) || !ls.Contains(idNum(110)) {
		t.Error("contains wrong after remove")
	}
}

func TestLeafSetClosest(t *testing.T) {
	ls := NewLeafSet(idNum(100), 8)
	for _, v := range []uint64{80, 90, 110, 120} {
		ls.Insert(idNum(v))
	}
	for _, tc := range []struct{ key, want uint64 }{{91, 90}, {101, 100}, {119, 120}} {
		if got, ok := ls.Deliver(idNum(tc.key)); !ok || got != idNum(tc.want) {
			t.Errorf("Deliver(%d) = (%v, %v), want (%d, true)", tc.key, got, ok, tc.want)
		}
	}
}

// covers is Deliver's range verdict alone.
func covers(ls *LeafSet, key ID) bool {
	_, ok := ls.Deliver(key)
	return ok
}

func TestLeafSetCoversUnderfilled(t *testing.T) {
	ls := NewLeafSet(idNum(100), 8)
	ls.Insert(idNum(90))
	// With fewer members than capacity, the leaf set spans the whole
	// (tiny) overlay and must cover everything.
	if !covers(ls, idNum(5)) || !covers(ls, ID{^uint64(0), 0}) {
		t.Error("underfilled leaf set should cover all keys")
	}
}

func TestLeafSetCoversRange(t *testing.T) {
	ls := NewLeafSet(idNum(100), 4)
	for _, v := range []uint64{80, 90, 110, 120} {
		ls.Insert(idNum(v))
	}
	for _, v := range []uint64{80, 85, 100, 115, 120} {
		if !covers(ls, idNum(v)) {
			t.Errorf("should cover %d", v)
		}
	}
	for _, v := range []uint64{5, 70, 200} {
		if covers(ls, idNum(v)) {
			t.Errorf("should not cover %d", v)
		}
	}
}

func TestLeafSetWraparound(t *testing.T) {
	// Owner near the top of the ring: counter-clockwise side wraps.
	owner := ID{^uint64(0), ^uint64(0) - 5}
	ls := NewLeafSet(owner, 4)
	lo := idNum(3) // clockwise across the wrap
	hi := ID{^uint64(0), ^uint64(0) - 100}
	ls.Insert(lo)
	ls.Insert(hi)
	if !ls.Contains(lo) || !ls.Contains(hi) {
		t.Fatal("wraparound inserts lost")
	}
	if got, ok := ls.Deliver(idNum(1)); !ok || got != lo {
		t.Errorf("Deliver across wrap = (%v, %v), want (%v, true)", got, ok, lo)
	}
}

// Property: Deliver agrees with brute force over members+owner.  A
// key it calls out of range lies beyond every successor clockwise and
// every predecessor counter-clockwise, with both sides full; half the
// keys sit next to a member, so both answers come up.
func TestPropLeafSetClosestMatchesBruteForce(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		owner := ridRand(rng)
		ls := NewLeafSet(owner, 8)
		var all []ID
		for i := 0; i < int(n)%50+1; i++ {
			x := ridRand(rng)
			if x == owner {
				continue
			}
			ls.Insert(x)
			all = append(all, x)
		}
		key := ridRand(rng)
		if len(all) > 0 && rng.Intn(2) == 0 {
			near := all[rng.Intn(len(all))]
			key = ID{near.hi, near.lo + uint64(rng.Intn(9)) - 4}
		}
		got, ok := ls.Deliver(key)
		if !ok {
			for _, lf := range ls.larger {
				if !lf.arc.Less(key.sub(owner)) {
					return false
				}
			}
			for _, lf := range ls.smaller {
				if !lf.arc.Less(owner.sub(key)) {
					return false
				}
			}
			return len(ls.larger) == 4 && len(ls.smaller) == 4
		}
		// Brute force over current members + owner.
		best := owner
		for _, m := range ls.Members() {
			if m.CloserToThan(key, best) {
				best = m
			}
		}
		return got == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the retained members are exactly the l/2 nearest ring
// successors plus the l/2 nearest ring predecessors among everything
// offered (directional sides, dedup for small rings).
func TestPropLeafSetRetainsRingNeighbours(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		owner := ridRand(rng)
		const l = 8
		ls := NewLeafSet(owner, l)
		var offered []ID
		seen := map[ID]bool{owner: true}
		for i := 0; i < 60; i++ {
			x := ridRand(rng)
			if seen[x] {
				continue
			}
			seen[x] = true
			ls.Insert(x)
			offered = append(offered, x)
		}
		cw := append([]ID(nil), offered...)
		ccw := append([]ID(nil), offered...)
		sort.Slice(cw, func(i, j int) bool { return cw[i].sub(owner).Less(cw[j].sub(owner)) })
		sort.Slice(ccw, func(i, j int) bool { return owner.sub(ccw[i]).Less(owner.sub(ccw[j])) })
		want := map[ID]bool{}
		for i := 0; i < len(cw) && i < l/2; i++ {
			want[cw[i]] = true
		}
		for i := 0; i < len(ccw) && i < l/2; i++ {
			want[ccw[i]] = true
		}
		members := ls.Members()
		if len(members) != len(want) {
			return false
		}
		for _, m := range members {
			if !want[m] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
