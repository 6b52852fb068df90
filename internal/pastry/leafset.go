package pastry

import "math/bits"

// LeafSet holds the l nodes with ids numerically closest to the owning
// node *by ring direction*: the l/2 immediate successors (clockwise,
// wrapping) and the l/2 immediate predecessors (counter-clockwise).
// The paper's storage management balances free space within the leaf
// set via object diversion (§4.3), with the typical Pastry value
// l = 16.
//
// Sides are directional, not minor-arc: when the overlay is small
// relative to l, a far successor wraps most of the ring and would be
// "closer" the other way — but it is still the successor, and real
// Pastry keeps it on the clockwise side.  A node may therefore appear
// on both sides of a small ring; Members dedupes.
type LeafSet struct {
	owner ID
	half  int
	// smaller: predecessors ordered by increasing counter-clockwise
	// arc; larger: successors ordered by increasing clockwise arc.
	// Each member carries its arc, so admission, range and closest-
	// leaf questions compare arcs instead of recomputing them.
	smaller []leaf
	larger  []leaf
}

// leaf is one member of a side with its arc from the owner in that
// side's direction.  The arc of an id is unique on its side (it is the
// id minus the owner, or the reverse), so equal arcs mean equal ids.
type leaf struct {
	id  ID
	arc ID
}

// DefaultLeafSetSize is Pastry's typical l.
const DefaultLeafSetSize = 16

// NewLeafSet creates an empty leaf set for owner with capacity l
// (rounded up to even).
func NewLeafSet(owner ID, l int) *LeafSet {
	if l < 2 {
		l = 2
	}
	half := (l + 1) / 2
	// One slot beyond half: an admitted id is inserted before the
	// farthest member is dropped.
	return &LeafSet{owner: owner, half: half, smaller: make([]leaf, 0, half+1), larger: make([]leaf, 0, half+1)}
}

// ccwDist is the counter-clockwise arc length from owner to x.
func (ls *LeafSet) ccwDist(x ID) ID { return ls.owner.sub(x) }

// cwDist is the clockwise arc length from owner to x.
func (ls *LeafSet) cwDist(x ID) ID { return x.sub(ls.owner) }

// Insert offers a node id to the leaf set.  It reports whether the id
// was kept on at least one side (displacing a farther node or filling
// a free slot).  The owner itself and duplicates are ignored.
func (ls *LeafSet) Insert(x ID) bool {
	if x == ls.owner {
		return false
	}
	var keptCW, keptCCW bool
	ls.larger, keptCW = insertByArc(ls.larger, leaf{x, ls.cwDist(x)}, ls.half)
	ls.smaller, keptCCW = insertByArc(ls.smaller, leaf{x, ls.ccwDist(x)}, ls.half)
	return keptCW || keptCCW
}

// insertByArc places lf on a side kept sorted by arc and at most half
// long.  A full side admits only an arc below its farthest member's,
// so the common refusal — an id from somewhere else on the ring — is
// one comparison.
func insertByArc(side []leaf, lf leaf, half int) ([]leaf, bool) {
	if len(side) == half && !lf.arc.Less(side[half-1].arc) {
		return side, false
	}
	i := len(side)
	for i > 0 && lf.arc.Less(side[i-1].arc) {
		i--
	}
	if i > 0 && side[i-1].id == lf.id {
		return side, false // already a member
	}
	side = append(side, leaf{})
	copy(side[i+1:], side[i:])
	side[i] = lf
	if len(side) > half {
		side = side[:half]
	}
	return side, true
}

func containsID(ids []ID, x ID) bool {
	for _, v := range ids {
		if v == x {
			return true
		}
	}
	return false
}

func sideIndex(side []leaf, x ID) int {
	for i := range side {
		if side[i].id == x {
			return i
		}
	}
	return -1
}

// Remove deletes x from both sides if present.
func (ls *LeafSet) Remove(x ID) bool {
	removed := false
	if i := sideIndex(ls.smaller, x); i >= 0 {
		ls.smaller = append(ls.smaller[:i], ls.smaller[i+1:]...)
		removed = true
	}
	if i := sideIndex(ls.larger, x); i >= 0 {
		ls.larger = append(ls.larger[:i], ls.larger[i+1:]...)
		removed = true
	}
	return removed
}

// Contains reports membership on either side.
func (ls *LeafSet) Contains(x ID) bool {
	return sideIndex(ls.smaller, x) >= 0 || sideIndex(ls.larger, x) >= 0
}

// Members returns the deduplicated leaf ids (both sides), owner
// excluded: the clockwise side nearest first, then the counter-
// clockwise members not already listed.
func (ls *LeafSet) Members() []ID {
	return ls.AppendMembers(make([]ID, 0, len(ls.smaller)+len(ls.larger)))
}

// AppendMembers appends Members() to dst, for callers that keep a
// buffer; the result does not alias the leaf set.
func (ls *LeafSet) AppendMembers(dst []ID) []ID {
	first := len(dst)
	for _, lf := range ls.larger {
		dst = append(dst, lf.id)
	}
	overlap := ls.sidesOverlap()
	for _, lf := range ls.smaller {
		if !overlap || !containsID(dst[first:], lf.id) {
			dst = append(dst, lf.id)
		}
	}
	return dst
}

// sidesOverlap reports whether an id can sit on both sides.  Its two
// arcs from the owner sum to the whole ring, so it can only when the
// farthest arcs of the two sides together reach round it; on a ring
// larger than the leaf set they fall short, and the sides are disjoint.
func (ls *LeafSet) sidesOverlap() bool {
	if len(ls.larger) == 0 || len(ls.smaller) == 0 {
		return false
	}
	a, b := ls.larger[len(ls.larger)-1].arc, ls.smaller[len(ls.smaller)-1].arc
	_, carry := bits.Add64(a.lo, b.lo, 0)
	_, carry = bits.Add64(a.hi, b.hi, carry)
	return carry != 0
}

// Len is the current number of distinct leaves.
func (ls *LeafSet) Len() int { return len(ls.Members()) }

// Deliver is the leaf-set step of Pastry routing.  It reports ok=false
// when key falls outside the leaf set's id range (beyond both the
// farthest predecessor and the farthest successor; with an unfilled
// side, as on small overlays, the range is open and holds every key).
// Otherwise it returns the leaf (or owner) numerically closest to key,
// ties to the smaller id.  Walking round the ring from the key, the
// closest node is the first one met in one direction or the other, and
// on a side sorted by arc those are the two members whose arcs bracket
// the key's: two candidates per side and the owner, not every leaf.
// The key's two arcs serve both questions.
func (ls *LeafSet) Deliver(key ID) (ID, bool) {
	cw, ccw := ls.cwDist(key), ls.ccwDist(key)
	if len(ls.smaller) == ls.half && len(ls.larger) == ls.half &&
		ls.larger[ls.half-1].arc.Less(cw) && ls.smaller[ls.half-1].arc.Less(ccw) {
		return ID{}, false
	}
	c := closest{key: key, id: ls.owner, dist: cw}
	if ccw.Less(cw) {
		c.dist = ccw
	}
	c.offerBracket(ls.larger, cw, ccw)
	c.offerBracket(ls.smaller, ccw, cw)
	return c.id, true
}

// closest carries the best candidate so far with its distance.
type closest struct {
	key, id, dist ID
}

// offer is "if x.CloserToThan(key, c.id) { c.id = x }" with c.id's
// distance remembered.
func (c *closest) offer(x ID) {
	d := x.Distance(c.key)
	if cmp := d.Cmp(c.dist); cmp < 0 || (cmp == 0 && x.Less(c.id)) {
		c.id, c.dist = x, d
	}
}

// offerBracket offers the members of side on either side of the key,
// which lies at arc along the side's direction and at back the other
// way round (the two sum to the ring).  When the key is nearer the
// other way and every member is short of arc-back, each is farther
// from the key than the owner by either route, and the side is
// skipped: on a ring larger than the leaf set that is the side the key
// is not on.
func (c *closest) offerBracket(side []leaf, arc, back ID) {
	n := len(side)
	if n == 0 || (back.Less(arc) && side[n-1].arc.Less(arc.sub(back))) {
		return
	}
	lo, hi := 0, n
	for lo < hi { // first member at or beyond arc
		mid := int(uint(lo+hi) >> 1)
		if side[mid].arc.Less(arc) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < n {
		c.offer(side[lo].id)
	}
	if lo > 0 {
		c.offer(side[lo-1].id)
	}
}
