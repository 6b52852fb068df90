package fleet

import (
	"fmt"
	"math/rand"
	"testing"

	"webcache/internal/pastry"
	"webcache/internal/trace"
)

func members(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://proxy-%d:8080", i)
	}
	return out
}

func TestRingDeterministic(t *testing.T) {
	// Two rings built from the same member list in different orders
	// must agree on every ownership decision — that is what lets each
	// proxy compute the ring locally with no coordination.
	a := NewRingOf(0, members(5))
	b := NewRing(0)
	for i := 4; i >= 0; i-- {
		b.Add(members(5)[i])
	}
	for i := 0; i < 10000; i++ {
		key := trace.ObjectID(rand.Uint64())
		oa, _ := a.OwnerOf(key)
		ob, _ := b.OwnerOf(key)
		if oa != ob {
			t.Fatalf("key %x: owner %q vs %q under insertion-order change", key, oa, ob)
		}
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(0)
	if _, ok := r.OwnerOf(1); ok {
		t.Fatal("empty ring claimed an owner")
	}
	if got := r.ReplicasOf(1, 3); got != nil {
		t.Fatalf("empty ring returned replicas %v", got)
	}
	if r.Remove("nobody") {
		t.Fatal("removing a non-member reported a change")
	}
}

func TestRingBalance(t *testing.T) {
	// With 128 vnodes the per-member share of a large key sample
	// should stay within a loose band of the 1/N mean.
	const n, keys = 8, 200000
	r := NewRingOf(0, members(n))
	counts := make(map[string]int)
	for i := 0; i < keys; i++ {
		o, ok := r.OwnerOf(trace.ObjectID(rand.Uint64()))
		if !ok {
			t.Fatal("no owner")
		}
		counts[o]++
	}
	mean := float64(keys) / n
	for m, c := range counts {
		if ratio := float64(c) / mean; ratio < 0.5 || ratio > 1.5 {
			t.Fatalf("member %s owns %.2fx the mean share (%d keys)", m, ratio, c)
		}
	}
}

func TestReplicasDistinctAndOwnerFirst(t *testing.T) {
	r := NewRingOf(0, members(5))
	for i := 0; i < 5000; i++ {
		key := trace.ObjectID(rand.Uint64())
		reps := r.ReplicasOf(key, 3)
		if len(reps) != 3 {
			t.Fatalf("key %x: got %d replicas, want 3", key, len(reps))
		}
		owner, _ := r.OwnerOf(key)
		if reps[0] != owner {
			t.Fatalf("key %x: replicas[0]=%q, owner=%q", key, reps[0], owner)
		}
		seen := map[string]bool{}
		for _, m := range reps {
			if seen[m] {
				t.Fatalf("key %x: duplicate replica %q in %v", key, m, reps)
			}
			seen[m] = true
		}
	}
	// k larger than the fleet clamps to the fleet.
	if got := len(r.ReplicasOf(42, 99)); got != 5 {
		t.Fatalf("oversized k returned %d replicas, want 5", got)
	}
}

func TestRemoveOnlyMovesRemovedMembersKeys(t *testing.T) {
	// The consistent-hash contract: dropping one member reassigns only
	// the keys that member owned; everything else keeps its owner.
	r := NewRingOf(0, members(6))
	victim := members(6)[3]
	keys := make([]trace.ObjectID, 20000)
	before := make([]string, len(keys))
	for i := range keys {
		keys[i] = trace.ObjectID(rand.Uint64())
		before[i], _ = r.OwnerOf(keys[i])
	}
	r.Remove(victim)
	for i, key := range keys {
		after, _ := r.OwnerOf(key)
		if before[i] != victim && after != before[i] {
			t.Fatalf("key %x moved %q -> %q though %q was removed", key, before[i], after, victim)
		}
		if before[i] == victim && after == victim {
			t.Fatalf("key %x still owned by removed member", key)
		}
	}
}

func TestFoldMatchesHTTPCacheFolding(t *testing.T) {
	// Pin the folding formula: httpcache delegates to this.
	id := pastry.HashString("http://origin/obj/7")
	want := trace.ObjectID(id[0] ^ (id[1]<<31 | id[1]>>33))
	if got := Fold(id); got != want {
		t.Fatalf("Fold = %x, want %x", got, want)
	}
}

func TestLoadTrackerDecay(t *testing.T) {
	tr := NewLoadTracker(4)
	for i := 0; i < 10; i++ {
		tr.Touch(1)
	}
	tr.Touch(2)
	tr.Touch(3)
	tr.Touch(4)
	if tr.Len() != 4 {
		t.Fatalf("len=%d, want 4", tr.Len())
	}
	// A fifth distinct key triggers the halving pass: key 1 keeps half
	// its count, the single-touch keys vanish.
	tr.Touch(5)
	if c := tr.Count(1); c != 5 {
		t.Fatalf("hot key count after decay = %d, want 5", c)
	}
	if tr.Count(2) != 0 || tr.Count(3) != 0 {
		t.Fatal("cold keys survived decay")
	}
	if tr.Count(5) != 1 {
		t.Fatal("new key not recorded after decay")
	}
}

func TestMemberLoadsOrder(t *testing.T) {
	l := NewMemberLoads()
	l.Report("a", 300)
	l.Report("b", 100)
	l.Report("c", 200)
	got := l.Order([]string{"a", "b", "c"})
	if got[0] != "b" || got[1] != "c" || got[2] != "a" {
		t.Fatalf("order = %v, want [b c a]", got)
	}
	// In-flight weight outranks a small reported-load edge.
	rel := l.Acquire("b")
	rel2 := l.Acquire("b")
	got = l.Order([]string{"a", "b", "c"})
	if got[0] != "c" {
		t.Fatalf("order with b busy = %v, want c first", got)
	}
	rel()
	rel2()
	if l.Load("b") != 100 {
		t.Fatalf("load after release = %d, want 100", l.Load("b"))
	}
	// Unknown members sort first (zero load) but ties keep ring order.
	got = l.Order([]string{"x", "y"})
	if got[0] != "x" || got[1] != "y" {
		t.Fatalf("tie order = %v, want [x y]", got)
	}
}
