package pastry

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func buildOverlay(t testing.TB, n int, cfg Config) (*Overlay, []ID) {
	t.Helper()
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := o.JoinN(n, "node")
	if err != nil {
		t.Fatal(err)
	}
	return o, ids
}

func TestRoutingTableBasics(t *testing.T) {
	owner := HashString("owner")
	rt := NewRoutingTable(owner, 4)
	other := HashString("other")
	if !rt.Insert(other) {
		t.Fatal("insert failed")
	}
	if rt.Insert(other) {
		t.Error("duplicate insert filled occupied slot")
	}
	got, ok := rt.Lookup(other)
	if !ok || got != other {
		t.Fatalf("lookup = %v %v", got, ok)
	}
	if rt.Size() != 1 {
		t.Errorf("size = %d", rt.Size())
	}
	if !rt.Remove(other) || rt.Remove(other) {
		t.Error("remove semantics wrong")
	}
	if rt.Insert(owner) {
		t.Error("owner inserted into own table")
	}
}

func TestRoutingTableRow(t *testing.T) {
	owner := ID{0, 0} // all-zero digits
	rt := NewRoutingTable(owner, 4)
	// A node differing in digit 0 goes to row 0.
	x := ID{0xF << 60, 0}
	rt.Insert(x)
	if row := rt.Row(0); len(row) != 1 || row[0] != x {
		t.Fatalf("row 0 = %v", row)
	}
	// A node sharing 1 digit goes to row 1.
	y := ID{0x0F << 56, 0}
	rt.Insert(y)
	if row := rt.Row(1); len(row) != 1 || row[0] != y {
		t.Fatalf("row 1 = %v", row)
	}
	if row := rt.Row(-1); row != nil {
		t.Error("negative row returned entries")
	}
	// Join asks for row i of a route's i-th hop, and a route may be
	// longer than the table has rows: past the last row, nothing.
	rows := IDBits / 4
	for _, r := range []int{rows, rows + 1, rows + 8} {
		if row := rt.Row(r); row != nil {
			t.Errorf("row %d past the last returned %v", r, row)
		}
		dst := []ID{x}
		if got := rt.appendRow(dst, r); len(got) != 1 || got[0] != x {
			t.Errorf("appendRow(dst, %d) past the last = %v, want dst unchanged", r, got)
		}
	}
}

func TestNewConfigValidation(t *testing.T) {
	if _, err := New(Config{B: 3}); err == nil {
		t.Error("b=3 accepted")
	}
	if _, err := New(Config{LeafSetSize: 7}); err == nil {
		t.Error("odd leaf set accepted")
	}
	o, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if o.B() != 4 {
		t.Errorf("default b = %d", o.B())
	}
}

func TestJoinDuplicate(t *testing.T) {
	o, _ := New(Config{Seed: 1})
	id := HashString("x")
	if err := o.Join(id); err != nil {
		t.Fatal(err)
	}
	if err := o.Join(id); err != ErrDuplicateID {
		t.Errorf("duplicate join err = %v", err)
	}
}

func TestRouteSingleNode(t *testing.T) {
	o, ids := buildOverlay(t, 1, Config{Seed: 1})
	dest, hops, err := o.Route(HashString("anykey"))
	if err != nil || dest != ids[0] || hops != 0 {
		t.Fatalf("route = %v %d %v", dest, hops, err)
	}
}

func TestRouteEmptyOverlay(t *testing.T) {
	o, _ := New(Config{})
	if _, _, err := o.Route(HashString("k")); err != ErrEmptyOverlay {
		t.Errorf("err = %v, want ErrEmptyOverlay", err)
	}
}

// Core DHT correctness: every route lands on the ground-truth owner.
func TestRouteReachesOwner(t *testing.T) {
	for _, n := range []int{2, 5, 16, 64, 200} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			o, _ := buildOverlay(t, n, Config{Seed: int64(n)})
			for i := 0; i < 500; i++ {
				key := HashString(fmt.Sprintf("key-%d", i))
				want, _ := o.Owner(key)
				got, _, err := o.Route(key)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("key %d: routed to %v, owner %v", i, got, want)
				}
			}
		})
	}
}

// The paper's hop bound: ceil(log_{2^b} N) hops in the common case.
func TestRouteHopBound(t *testing.T) {
	const n = 256
	o, _ := buildOverlay(t, n, Config{Seed: 7, B: 4})
	logBound := math.Ceil(math.Log(float64(n)) / math.Log(16))
	sumHops, maxHops := 0, 0
	const routes = 2000
	for i := 0; i < routes; i++ {
		_, hops, err := o.Route(HashString(fmt.Sprintf("k%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		sumHops += hops
		if hops > maxHops {
			maxHops = hops
		}
	}
	mean := float64(sumHops) / routes
	if mean > logBound+1 {
		t.Errorf("mean hops %.2f exceeds log bound %g + 1", mean, logBound)
	}
	// Allow leaf-set slack on the max but catch pathological routing.
	if float64(maxHops) > 2*logBound+3 {
		t.Errorf("max hops %d pathological (log bound %g)", maxHops, logBound)
	}
	st := o.Stats()
	if st.Routes != routes || st.MeanHops != mean || st.MaxHops != maxHops {
		t.Errorf("stats mismatch: %+v", st)
	}
}

func TestRouteHopsGrowLogarithmically(t *testing.T) {
	mean := func(n int) float64 {
		o, _ := buildOverlay(t, n, Config{Seed: 11, B: 4})
		sum := 0
		for i := 0; i < 500; i++ {
			_, hops, err := o.Route(HashString(fmt.Sprintf("k%d", i)))
			if err != nil {
				t.Fatal(err)
			}
			sum += hops
		}
		return float64(sum) / 500
	}
	small, large := mean(16), mean(512)
	if large < small {
		t.Errorf("hops should not shrink with size: %g -> %g", small, large)
	}
	if large > 4*small+3 {
		t.Errorf("hops growing too fast: %g -> %g (not logarithmic)", small, large)
	}
}

func TestFailThenRouteStillCorrect(t *testing.T) {
	o, ids := buildOverlay(t, 100, Config{Seed: 3})
	rng := rand.New(rand.NewSource(9))
	// Kill 30 nodes abruptly.
	killed := map[ID]bool{}
	for len(killed) < 30 {
		id := ids[rng.Intn(len(ids))]
		if !killed[id] && o.Fail(id) {
			killed[id] = true
		}
	}
	if o.Len() != 70 {
		t.Fatalf("len = %d, want 70", o.Len())
	}
	for i := 0; i < 500; i++ {
		key := HashString(fmt.Sprintf("fk%d", i))
		want, _ := o.Owner(key)
		got, _, err := o.Route(key)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("after failures key %d routed to %v, owner %v", i, got, want)
		}
		if killed[got] {
			t.Fatal("routed to a dead node")
		}
	}
}

func TestLeaveGraceful(t *testing.T) {
	o, ids := buildOverlay(t, 50, Config{Seed: 5})
	for i := 0; i < 10; i++ {
		if !o.Leave(ids[i]) {
			t.Fatalf("leave %d failed", i)
		}
	}
	if o.Leave(ids[0]) {
		t.Error("double leave succeeded")
	}
	for i := 0; i < 300; i++ {
		key := HashString(fmt.Sprintf("lk%d", i))
		want, _ := o.Owner(key)
		got, _, err := o.Route(key)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("after leaves key %d routed to %v, owner %v", i, got, want)
		}
	}
}

func TestChurn(t *testing.T) {
	o, _ := buildOverlay(t, 60, Config{Seed: 13})
	rng := rand.New(rand.NewSource(17))
	joined := 60
	for round := 0; round < 200; round++ {
		switch rng.Intn(3) {
		case 0:
			id := HashString(fmt.Sprintf("churn-%d", round))
			if err := o.Join(id); err == nil {
				joined++
			}
		case 1:
			if o.Len() > 10 {
				ids := o.IDs()
				o.Fail(ids[rng.Intn(len(ids))])
			}
		case 2:
			key := HashString(fmt.Sprintf("ck%d", round))
			want, _ := o.Owner(key)
			got, _, err := o.RouteFrom(o.IDs()[rng.Intn(o.Len())], key)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("round %d: routed to %v, owner %v (n=%d)", round, got, want, o.Len())
			}
		}
	}
}

func TestRouteFromSpecificStart(t *testing.T) {
	o, ids := buildOverlay(t, 40, Config{Seed: 21})
	key := HashString("target")
	want, _ := o.Owner(key)
	for _, start := range ids[:10] {
		got, _, err := o.RouteFrom(start, key)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("from %v: got %v want %v", start, got, want)
		}
	}
	if _, _, err := o.RouteFrom(HashString("not-a-node"), key); !errors.Is(err, ErrUnknownStart) {
		t.Errorf("route from dead start: err = %v, want ErrUnknownStart", err)
	}
	// A live node with the zero id must not stand in for a start that
	// is not a node: the route is refused, not delivered there in 0 hops.
	z, _ := New(Config{Seed: 21})
	for _, id := range []ID{idNum(0), idNum(1 << 40), ID{1 << 63, 0}} {
		if err := z.Join(id); err != nil {
			t.Fatal(err)
		}
	}
	if dest, hops, err := z.RouteFrom(idNum(7), key); !errors.Is(err, ErrUnknownStart) {
		t.Errorf("route from a non-node beside a zero-id node = (%v, %d, %v), want ErrUnknownStart", dest, hops, err)
	}
	if got, _, err := z.RouteFrom(idNum(0), key); err != nil {
		t.Errorf("route from the zero-id node: %v", err)
	} else if want, _ := z.Owner(key); got != want {
		t.Errorf("route from the zero-id node = %v, want %v", got, want)
	}
}

func TestOwnerGroundTruth(t *testing.T) {
	o, _ := New(Config{})
	if _, ok := o.Owner(idNum(5)); ok {
		t.Error("owner on empty overlay")
	}
	o.Join(idNum(10))
	o.Join(idNum(20))
	o.Join(idNum(30))
	cases := []struct {
		key  ID
		want ID
	}{
		{idNum(10), idNum(10)},
		{idNum(14), idNum(10)},
		{idNum(15), idNum(10)}, // tie 10 vs 20 -> smaller id
		{idNum(16), idNum(20)},
		{idNum(29), idNum(30)},
		{ID{1 << 60, 0}, idNum(30)}, // beyond all: wrap consideration
	}
	for _, c := range cases {
		got, ok := o.Owner(c.key)
		if !ok || got != c.want {
			t.Errorf("Owner(%v) = %v, want %v", c.key, got, c.want)
		}
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a, _ := buildOverlay(t, 50, Config{Seed: 99})
	b, _ := buildOverlay(t, 50, Config{Seed: 99})
	for i := 0; i < 100; i++ {
		key := HashString(fmt.Sprintf("d%d", i))
		da, ha, _ := a.Route(key)
		db, hb, _ := b.Route(key)
		if da != db || ha != hb {
			t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", da, ha, db, hb)
		}
	}
}

func TestOverlayWithB2(t *testing.T) {
	o, _ := buildOverlay(t, 64, Config{Seed: 2, B: 2})
	for i := 0; i < 200; i++ {
		key := HashString(fmt.Sprintf("b2-%d", i))
		want, _ := o.Owner(key)
		got, _, err := o.Route(key)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("b=2 key %d: %v vs %v", i, got, want)
		}
	}
}

// Property: in a random overlay, routing from a random start always
// reaches the ground-truth owner.
func TestPropRoutingCorrect(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw)%80 + 2
		o, err := New(Config{Seed: seed})
		if err != nil {
			return false
		}
		if _, err := o.JoinN(n, fmt.Sprintf("p%d", seed)); err != nil {
			return false
		}
		key := HashUint64(uint64(kRaw) * 2654435761)
		want, _ := o.Owner(key)
		got, _, err := o.Route(key)
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestIDSetGrowsAcrossResets fills an offer set far past the size it
// was made for, epoch after epoch: every add of a new id reports it
// absent, every repeat reports it present, ids of an earlier epoch are
// gone, and the table doubles before it is half full.
func TestIDSetGrowsAcrossResets(t *testing.T) {
	s := newIDSet(4)
	initial := len(s.ids)
	for epoch := 0; epoch < 5; epoch++ {
		s.reset()
		n := 50 * (epoch + 1)
		for i := 0; i < n; i++ {
			// The low word, which picks the home slot, repeats every 8
			// ids, so probe runs are long.
			x := ID{uint64(epoch*1000 + i), uint64(i % 8)}
			if !s.add(x) {
				t.Fatalf("epoch %d: add(%v) reported a new id present", epoch, x)
			}
			if s.add(x) {
				t.Fatalf("epoch %d: add(%v) reported a repeat absent", epoch, x)
			}
			if 2*s.n > len(s.ids) {
				t.Fatalf("epoch %d: %d members in %d slots", epoch, s.n, len(s.ids))
			}
		}
		if s.n != n {
			t.Fatalf("epoch %d: %d members, want %d", epoch, s.n, n)
		}
	}
	if len(s.ids) <= initial {
		t.Fatalf("the set stayed at %d slots", len(s.ids))
	}
	s.reset()
	if !s.add(ID{4000, 0}) {
		t.Fatal("an id of the previous epoch is still present after reset")
	}
}
