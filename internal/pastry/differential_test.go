package pastry

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The differential tests drive Overlay and refOverlay (reference_test.go)
// through the same random join/fail/leave/route scripts and require
// the same state after every step and the same answer to every
// question: the fast leaf set, prefix length and repair may only be
// cheaper, never different.

// sideIDs strips the cached arcs off one leaf-set side.
func sideIDs(side []leaf) []ID {
	out := make([]ID, len(side))
	for i, lf := range side {
		out[i] = lf.id
	}
	return out
}

func nodeIDs(path []*Node) []ID {
	out := make([]ID, len(path))
	for i, n := range path {
		out[i] = n.id
	}
	return out
}

// diffPair is one script's two overlays.
type diffPair struct {
	t    *testing.T
	o    *Overlay
	ref  *refOverlay
	rng  *rand.Rand // script choices; the overlays' own rngs stay in step
	next int        // join counter
	name string
}

func newDiffPair(t *testing.T, cfg Config, seed int64) *diffPair {
	t.Helper()
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &diffPair{
		t: t, o: o, ref: newRefOverlay(cfg), rng: rand.New(rand.NewSource(seed)),
		name: fmt.Sprintf("b=%d l=%d prox=%v seed=%d", cfg.B, cfg.LeafSetSize, cfg.ProximityAware, seed),
	}
}

func (p *diffPair) join() {
	id := HashString(fmt.Sprintf("diff/%s/%d", p.name, p.next))
	p.next++
	if err := p.o.Join(id); err != nil {
		p.t.Fatalf("%s: join: %v", p.name, err)
	}
	p.ref.Join(id)
}

func (p *diffPair) randomLive() ID { return p.ref.ids[p.rng.Intn(len(p.ref.ids))] }

// randomKey is mostly uniform, sometimes a live id or its neighbour on
// the id line, where ownership ties and self-delivery live.
func (p *diffPair) randomKey() ID {
	switch p.rng.Intn(8) {
	case 0:
		return p.randomLive()
	case 1:
		id := p.randomLive()
		return ID{id.hi, id.lo + 1}
	default:
		return ID{p.rng.Uint64(), p.rng.Uint64()}
	}
}

// step applies one random operation to both overlays.
func (p *diffPair) step(minNodes, maxNodes int) string {
	n := len(p.ref.ids)
	op := p.rng.Intn(10)
	switch {
	case (op < 3 || n <= minNodes) && n < maxNodes:
		p.join()
		return "join"
	case op < 5 && n > minNodes:
		id := p.randomLive()
		p.o.Fail(id)
		p.ref.Fail(id)
		return "fail"
	case op < 6 && n > minNodes:
		id := p.randomLive()
		p.o.Leave(id)
		p.ref.Leave(id)
		return "leave"
	default:
		// A route repairs lazily whatever dead state it runs into, so
		// it is a mutation too.
		start, key := p.randomLive(), p.randomKey()
		dest, hops, path := p.o.routeFrom(start, key)
		wantDest, wantHops, wantPath := p.ref.routeFrom(start, key)
		if dest != wantDest || hops != wantHops || !slices.Equal(nodeIDs(path), wantPath) {
			p.t.Fatalf("%s: routeFrom(%v, %v) = %v in %d hops via %v, reference %v in %d hops via %v",
				p.name, start, key, dest, hops, path, wantDest, wantHops, wantPath)
		}
		return "route"
	}
}

// compare requires equal membership state on every node and equal
// answers for a few random keys.
func (p *diffPair) compare(after string) {
	p.t.Helper()
	if !slices.Equal(p.o.IDs(), p.ref.ids) {
		p.t.Fatalf("%s: after %s: live ids differ", p.name, after)
	}
	for _, id := range p.ref.ids {
		n, rn := p.o.nodes.Get(id), p.ref.nodes[id]
		if got, want := sideIDs(n.leafs.larger), rn.leafs.larger; !slices.Equal(got, want) {
			p.t.Fatalf("%s: after %s: node %v clockwise side\n got  %v\n want %v", p.name, after, id, got, want)
		}
		if got, want := sideIDs(n.leafs.smaller), rn.leafs.smaller; !slices.Equal(got, want) {
			p.t.Fatalf("%s: after %s: node %v counter-clockwise side\n got  %v\n want %v", p.name, after, id, got, want)
		}
		if got, want := n.leafs.Members(), rn.leafs.Members(); !slices.Equal(got, want) {
			p.t.Fatalf("%s: after %s: node %v Members()\n got  %v\n want %v", p.name, after, id, got, want)
		}
		if got, want := n.table.Entries(), rn.table.Entries(); !slices.Equal(got, want) {
			p.t.Fatalf("%s: after %s: node %v routing table\n got  %v\n want %v", p.name, after, id, got, want)
		}
	}
	for i := 0; i < 4; i++ {
		key, at := p.randomKey(), p.randomLive()
		n, rn := p.o.nodes.Get(at), p.ref.nodes[at]
		if got, ok := n.leafs.Deliver(key); !rn.leafs.delivers(got, ok, key) {
			p.t.Fatalf("%s: after %s: node %v Deliver(%v) = (%v, %v), reference Covers %v, Closest %v",
				p.name, after, at, key, got, ok, rn.leafs.Covers(key), rn.leafs.Closest(key))
		}
		next, final := n.NextHop(key)
		wantNext, wantFinal := rn.NextHop(key)
		if next != wantNext || final != wantFinal {
			p.t.Fatalf("%s: after %s: node %v NextHop(%v) = (%v, %v), reference (%v, %v)",
				p.name, after, at, key, next, final, wantNext, wantFinal)
		}
		if got, _ := p.o.Owner(key); got != p.ref.Owner(key) {
			p.t.Fatalf("%s: after %s: Owner(%v) = %v, reference %v", p.name, after, key, got, p.ref.Owner(key))
		}
	}
}

func TestOverlayMatchesReference(t *testing.T) {
	for _, ring := range []struct {
		name            string
		start, min, max int
		steps, scripts  int
		leafSetSizes    []int
	}{
		// 3-20 nodes under l = 16: below 9 nodes no side ever fills,
		// from 9 to 16 a node sits on both sides of its neighbours'
		// leaf sets; l = 4 fills both sides on the same rings.
		{name: "small", start: 3, min: 3, max: 20, steps: 120, scripts: 6, leafSetSizes: []int{16, 4}},
		{name: "large", start: 100, min: 100, max: 300, steps: 150, scripts: 2, leafSetSizes: []int{16}},
	} {
		for _, b := range []int{2, 4} {
			for _, prox := range []bool{false, true} {
				for _, l := range ring.leafSetSizes {
					for s := 0; s < ring.scripts; s++ {
						seed := int64(1000*s + 10*b + l)
						p := newDiffPair(t, Config{B: b, LeafSetSize: l, Seed: seed, ProximityAware: prox}, seed)
						p.name = ring.name + " " + p.name
						for p.next < ring.start {
							p.join()
						}
						p.compare("the initial joins")
						for i := 0; i < ring.steps; i++ {
							op := p.step(ring.min, ring.max)
							p.compare(fmt.Sprintf("step %d (%s)", i, op))
						}
					}
				}
			}
		}
	}
}

// TestRepairRelearnsAfterForget is the order a once-per-repair filter
// gets wrong if it outlives a forget: 1030 is offered by 1010 while
// 1000's clockwise side is still full of (1010, dead 1020) and is
// refused; forgetting 1020 makes room; 990's offer of 1030 must then
// be taken.
func TestRepairRelearnsAfterForget(t *testing.T) {
	cfg := Config{B: 4, LeafSetSize: 4, Seed: 1}
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefOverlay(cfg)
	for _, v := range []uint64{990, 1000, 1010, 1020, 1030} {
		if err := o.Join(idNum(v)); err != nil {
			t.Fatal(err)
		}
		ref.Join(idNum(v))
	}
	n, rn := o.nodes.Get(idNum(1000)), ref.nodes[idNum(1000)]
	if got, want := sideIDs(n.leafs.larger), []ID{idNum(1010), idNum(1020)}; !slices.Equal(got, want) {
		t.Fatalf("clockwise side before the crash = %v, want %v", got, want)
	}
	// 1020 crashes and nobody has noticed yet.
	o.nodes.Delete(idNum(1020))
	o.removeID(idNum(1020))
	ref.crash(idNum(1020))

	o.repairLeafSet(n)
	ref.repairLeafSet(rn)
	want := []ID{idNum(1010), idNum(1030)}
	if got := sideIDs(n.leafs.larger); !slices.Equal(got, want) {
		t.Errorf("clockwise side after repair = %v, want %v", got, want)
	}
	if !slices.Equal(rn.leafs.larger, want) {
		t.Errorf("reference clockwise side after repair = %v, want %v", rn.leafs.larger, want)
	}
}

// TestClosestEquidistantTie: of two leaves, or a leaf and the owner,
// at the same distance from the key, the smaller id owns it.
func TestClosestEquidistantTie(t *testing.T) {
	for _, tc := range []struct {
		owner  uint64
		leaves []uint64
		key    uint64
		want   uint64
	}{
		{owner: 100, leaves: []uint64{80, 90, 110, 120}, key: 115, want: 110},
		{owner: 100, leaves: []uint64{80, 90, 110, 120}, key: 85, want: 80},
		{owner: 100, leaves: []uint64{80, 90, 110, 120}, key: 95, want: 90},   // leaf below the owner wins
		{owner: 100, leaves: []uint64{80, 90, 110, 120}, key: 105, want: 100}, // the owner wins
	} {
		ls := NewLeafSet(idNum(tc.owner), 8)
		ref := &refLeafSet{owner: idNum(tc.owner), half: 4}
		for _, v := range tc.leaves {
			ls.Insert(idNum(v))
			ref.Insert(idNum(v))
		}
		if got, ok := ls.Deliver(idNum(tc.key)); !ok || got != idNum(tc.want) {
			t.Errorf("owner %d leaves %v: Deliver(%d) = (%v, %v), want (%d, true)", tc.owner, tc.leaves, tc.key, got, ok, tc.want)
		}
		if got := ref.Closest(idNum(tc.key)); got != idNum(tc.want) {
			t.Errorf("owner %d leaves %v: reference Closest(%d) = %v, want %d", tc.owner, tc.leaves, tc.key, got, tc.want)
		}
	}
}

// TestLeafSetMatchesReference offers random ids — drawn from a narrow
// band so sides fill, collide and wrap — and removes some, comparing
// both sides, the admission verdict and Deliver's answer at every step.
func TestLeafSetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		l := []int{2, 4, 8, 16}[rng.Intn(4)]
		// Most ids come from a band a few dozen wide, so sides fill and
		// displace; a band across zero makes the arcs wrap.
		centre := []ID{{7, 1 << 63}, {0, 5}, {^uint64(0), ^uint64(0) - 5}}[rng.Intn(3)]
		span := uint64(4 + rng.Intn(60))
		draw := func() ID {
			if rng.Intn(6) == 0 {
				return ID{rng.Uint64(), rng.Uint64()}
			}
			off := ID{0, rng.Uint64() % span}
			return off.sub(ID{}.sub(centre)) // centre + off
		}
		owner := draw()
		ls := NewLeafSet(owner, l)
		ref := &refLeafSet{owner: owner, half: (l + 1) / 2}
		var offered []ID
		for i := 0; i < 80; i++ {
			if len(offered) > 0 && rng.Intn(5) == 0 {
				x := offered[rng.Intn(len(offered))]
				ls.Remove(x)
				ref.Remove(x)
			} else {
				x := draw()
				offered = append(offered, x)
				if got, want := ls.Insert(x), ref.Insert(x); got != want {
					t.Fatalf("trial %d: Insert(%v) = %v, reference %v", trial, x, got, want)
				}
			}
			if !slices.Equal(sideIDs(ls.larger), ref.larger) || !slices.Equal(sideIDs(ls.smaller), ref.smaller) {
				t.Fatalf("trial %d step %d: sides differ\n got  %v | %v\n want %v | %v",
					trial, i, sideIDs(ls.smaller), sideIDs(ls.larger), ref.smaller, ref.larger)
			}
			if !slices.Equal(ls.Members(), ref.Members()) {
				t.Fatalf("trial %d step %d: Members() = %v, reference %v", trial, i, ls.Members(), ref.Members())
			}
			key := draw()
			if got, ok := ls.Deliver(key); !ref.delivers(got, ok, key) {
				t.Fatalf("trial %d step %d: Deliver(%v) = (%v, %v), reference Covers %v, Closest %v",
					trial, i, key, got, ok, ref.Covers(key), ref.Closest(key))
			}
		}
	}
}

func TestCommonPrefixLenMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		a := ID{rng.Uint64(), rng.Uint64()}
		// Share a random number of leading bits, so every prefix
		// length, both words and full equality come up.
		c := a
		if keep := rng.Intn(IDBits + 1); keep < IDBits {
			flip := ID{rng.Uint64(), rng.Uint64()}
			flip.hi |= 1 << 63 // the first bit after the kept prefix differs
			var mask ID
			switch {
			case keep == 0:
				mask = flip
			case keep < 64:
				mask = ID{flip.hi >> uint(keep), flip.lo}
			case keep == 64:
				mask = ID{0, flip.hi}
			default:
				mask = ID{0, flip.hi >> uint(keep-64)}
			}
			c = ID{a.hi ^ mask.hi, a.lo ^ mask.lo}
		}
		for _, b := range []int{1, 2, 4, 8} {
			if got, want := a.CommonPrefixLen(c, b), refCommonPrefixLen(a, c, b); got != want {
				t.Fatalf("CommonPrefixLen(%v, %v, %d) = %d, reference %d", a, c, b, got, want)
			}
		}
	}
}

func TestCloserToThanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	near := func(x ID) ID { return ID{x.hi, x.lo + uint64(rng.Intn(5)) - 2} }
	for i := 0; i < 20000; i++ {
		key := ID{rng.Uint64(), rng.Uint64()}
		a, c := ID{rng.Uint64(), rng.Uint64()}, ID{rng.Uint64(), rng.Uint64()}
		switch rng.Intn(4) {
		case 0: // both a few ids from the key: ties and near-ties
			a, c = near(key), near(key)
		case 1: // half a ring away, where the two arcs are equal
			a = near(ID{key.hi ^ 1<<63, key.lo})
		}
		if got, want := a.CloserToThan(key, c), refCloser(a, key, c); got != want {
			t.Fatalf("%v.CloserToThan(%v, %v) = %v, reference %v", a, key, c, got, want)
		}
	}
}

// TestRareCaseMatchesReference crashes the only node in a row-r >= 1
// routing slot and routes keys that need that slot from the node whose
// table held it.  The first route finds the entry dead and purges it;
// from then on the slot is empty and the key lies outside the node's
// leaf range, so NextHop takes the rare case with myPrefix = r, where
// only table rows from r on are offered.  At every step NextHop, the
// route and every node's table and leaf sides must match the
// reference's.
func TestRareCaseMatchesReference(t *testing.T) {
	for _, prox := range []bool{false, true} {
		const b = 4
		p := newDiffPair(t, Config{B: b, LeafSetSize: 16, Seed: 5, ProximityAware: prox}, 5)
		for p.next < 400 {
			p.join()
		}
		p.compare("the initial joins")
		x, y, row := findLoneEntry(p.o, b)
		if row < 1 {
			t.Fatalf("%s: no node's table holds the only node of a row >= 1 slot", p.name)
		}
		p.o.Fail(y)
		p.ref.Fail(y)
		p.compare("the crash")
		xn := p.o.nodes.Get(x)
		rare := 0
		for i := 0; i < 60; i++ {
			// A key sharing y's first row+1 digits: it needs y's slot.
			bits := uint((row + 1) * b)
			key := ID{p.rng.Uint64(), p.rng.Uint64()}
			key.hi = y.hi&^(^uint64(0)>>bits) | key.hi&(^uint64(0)>>bits)
			_, inLeafs := xn.leafs.Deliver(key)
			_, inTable := xn.table.Lookup(key)
			if !inLeafs && !inTable && x.CommonPrefixLen(key, b) >= 1 {
				rare++
			}
			next, final := xn.NextHop(key)
			wantNext, wantFinal := p.ref.nodes[x].NextHop(key)
			if next != wantNext || final != wantFinal {
				t.Fatalf("%s: route %d: NextHop(%v) = (%v, %v), reference (%v, %v)", p.name, i, key, next, final, wantNext, wantFinal)
			}
			for _, start := range []ID{x, p.randomLive()} {
				dest, hops, path := p.o.routeFrom(start, key)
				wantDest, wantHops, wantPath := p.ref.routeFrom(start, key)
				if dest != wantDest || hops != wantHops || !slices.Equal(nodeIDs(path), wantPath) {
					t.Fatalf("%s: route %d: routeFrom(%v, %v) = %v in %d hops via %v, reference %v in %d hops via %v",
						p.name, i, start, key, dest, hops, nodeIDs(path), wantDest, wantHops, wantPath)
				}
			}
			p.compare(fmt.Sprintf("route %d", i))
		}
		t.Logf("%s: the lone entry sat in row %d; %d of 60 routes from its node took the rare case", p.name, row, rare)
		if rare == 0 {
			t.Errorf("%s: no route took the rare case with myPrefix >= 1", p.name)
		}
	}
}

// findLoneEntry returns a node x, an entry y of x's routing-table row
// row >= 1 that no other live node could replace (it is the only one
// with its first row+1 digits), preferring the deepest such row.
func findLoneEntry(o *Overlay, b int) (x, y ID, row int) {
	row = -1
	for _, id := range o.ids {
		n := o.nodes.Get(id)
		for _, e := range n.table.Entries() {
			r := id.CommonPrefixLen(e, b)
			if r < 1 || r <= row || n.leafs.Contains(e) {
				continue
			}
			lone := true
			for _, other := range o.ids {
				if other != e && other.CommonPrefixLen(e, b) > r {
					lone = false
					break
				}
			}
			if lone {
				x, y, row = id, e, r
			}
		}
	}
	return x, y, row
}

// TestJoinOntoLargeRingMatchesReference joins one node onto a ring of
// a thousand: the joiner hears far more distinct ids than a repair
// (more than the l*l its offer set starts sized for), each offered once
// against the reference's every offer, and must end with the same
// table and leaf sides, as must every node it announced itself to.
func TestJoinOntoLargeRingMatchesReference(t *testing.T) {
	p := newDiffPair(t, Config{B: 4, LeafSetSize: 16, Seed: 9, ProximityAware: true}, 9)
	for p.next < 1000 {
		p.join()
	}
	p.join()
	p.compare("the last join")
	if l := p.o.LeafSetSize(); p.o.offered.n <= l*l {
		t.Errorf("the join offered %d distinct ids, not more than l*l = %d", p.o.offered.n, l*l)
	}
}
