package pastry

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestFreshOverlayConsistent(t *testing.T) {
	o, _ := buildOverlay(t, 120, Config{Seed: 1})
	if v := o.CheckConsistency(); len(v) != 0 {
		t.Fatalf("fresh overlay has %d violations; first: %+v", len(v), v[0])
	}
	d := o.Diagnose()
	if d.Nodes != 120 || d.Violations != 0 {
		t.Errorf("diagnostics: %+v", d)
	}
	if d.CompleteLeafSets != 120 {
		t.Errorf("only %d/120 complete leaf sets on a fresh overlay", d.CompleteLeafSets)
	}
	if d.MeanTableFill <= 0 || d.MeanLeafFill <= 0 {
		t.Errorf("empty fills: %+v", d)
	}
}

func TestStabilizeAfterMassFailure(t *testing.T) {
	o, ids := buildOverlay(t, 150, Config{Seed: 2})
	rng := rand.New(rand.NewSource(3))
	killed := 0
	for killed < 50 {
		if o.Fail(ids[rng.Intn(len(ids))]) {
			killed++
		}
	}
	// Failures repair leaf sets of direct neighbours, but distant
	// routing-table entries stay stale until touched.
	repairs := o.Stabilize()
	if repairs == 0 {
		t.Error("stabilize found nothing to repair after 50 crashes")
	}
	if v := o.CheckConsistency(); len(v) != 0 {
		t.Fatalf("%d violations after stabilize; first: %+v", len(v), v[0])
	}
	// Routing is exact again everywhere.
	for i := 0; i < 300; i++ {
		key := HashString(fmt.Sprintf("mk%d", i))
		want, _ := o.Owner(key)
		got, _, err := o.Route(key)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("post-stabilize route %v != owner %v", got, want)
		}
	}
}

func TestStabilizeIdempotent(t *testing.T) {
	o, _ := buildOverlay(t, 60, Config{Seed: 4})
	o.Stabilize()
	if again := o.Stabilize(); again != 0 {
		t.Errorf("second stabilize repaired %d items on a stable overlay", again)
	}
}

func TestDiagnoseEmptyOverlay(t *testing.T) {
	o, _ := New(Config{})
	d := o.Diagnose()
	if d.Nodes != 0 || d.Violations != 0 {
		t.Errorf("empty diagnostics: %+v", d)
	}
}

func TestCheckConsistencyDetectsDamage(t *testing.T) {
	o, ids := buildOverlay(t, 40, Config{Seed: 5})
	// Surgically break one node: forget a live ring neighbour.
	n := o.nodes.Get(ids[0])
	members := n.leafs.Members()
	if len(members) == 0 {
		t.Fatal("no leaf members")
	}
	n.leafs.Remove(members[0])
	if v := o.CheckConsistency(); len(v) == 0 {
		t.Fatal("damage not detected")
	}
	o.Stabilize()
	if v := o.CheckConsistency(); len(v) != 0 {
		t.Fatalf("stabilize did not heal: %+v", v[0])
	}
}
