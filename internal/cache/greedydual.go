package cache

import (
	"math"
	"slices"

	"webcache/internal/trace"
)

// GreedyDual implements the greedy-dual replacement algorithm (Young's
// on-line file caching algorithm, SODA 1998) in its efficient
// inflation-value form, generalized to sizes as GreedyDual-Size (Cao &
// Irani): each cached object carries a value
//
//	H(o) = L + Cost(o)/Size(o)
//
// where L is a monotonically non-decreasing "inflation" set to the H
// value of the last eviction victim.  On a hit, H is refreshed with the
// current L.  Eviction removes the minimum-H object, ties to the least
// recently placed or refreshed.
//
// Hier-GD (paper §3) runs this algorithm at the proxy and at every
// client cache: objects the proxy evicts are "passed down" into the P2P
// client cache, where the receiving client cache enforces greedy-dual
// again.  Because cost is the fetch latency, greedy-dual implicitly
// coordinates caches: cheap-to-refetch objects (a cooperating proxy
// already has them) are evicted before expensive ones (server-only),
// which is the "implicit cache coordination" Korupolu & Dahlin
// observed.
//
// The cached objects sit in ratio classes: one FIFO of slab nodes per
// distinct Cost/Size, keyed by the ratio's float bits.  A placement or
// a refresh appends its node to the tail of its class.  Within a class
// that order is the (H, seq) order a min-heap would keep: every H there
// is L + the same ratio, L never falls (costs are fetch latencies, so
// non-negative, and every victim's H is at least the L it was built
// on), and IEEE addition is monotone, so a later node's H is at least
// an earlier one's and its sequence number is larger.  The victim is
// therefore the least (H, seq) of the class heads, with a per-object
// heap's tie-break: the lower H, then the older placement or refresh.
// The heads are kept in a min-heap, whose root is the victim.  A class
// that empties is retired, so variable sizes (the live store's) do not
// pile them up.
// A placement finds its class by the ratio's bits in a slotTable.
// GDSF runs on the same classes with a ratio scaled by frequency.
type GreedyDual struct {
	nodes   []gdNode
	classes []gdClass
	// heads lists the live classes, a binary min-heap by each class's
	// head (H, seq).
	heads   []int32
	slot    slotTable // id -> index into nodes
	classOf slotTable // ratio bits of a live class -> index into classes
	// freeNode and freeClass chain released slab slots through
	// gdNode.next and gdClass.pos; -1 = none.
	freeNode, freeClass int32
	seq                 uint64
	used, capacity      uint64
	inflation           float64
	// scratch backs the slice Add returns; reused across calls so the
	// steady-state eviction path never allocates (see Policy.Add).
	scratch []Entry
}

// gdNode is one cached entry, linked into its class's FIFO.
type gdNode struct {
	Entry
	h          float64 // H value
	seq        uint64  // placement or refresh order: the tie-break
	class      int32
	prev, next int32 // older and newer neighbours in the class; -1 at the ends
}

// gdClass holds the cached objects whose Cost/Size is ratio, oldest
// placement or refresh first.
type gdClass struct {
	ratio      float64
	head, tail int32
	pos        int32 // index in heads; on the free list, the next free class
}

// NewGreedyDual returns a greedy-dual cache of the given capacity whose
// id -> slot table hashes every id.
func NewGreedyDual(capacity uint64) *GreedyDual { return NewGreedyDualDense(capacity, 0) }

// NewGreedyDualDense returns a greedy-dual cache of the given capacity
// whose ids below universe (a trace's NumObjects) index a direct array
// instead of a hash table, as NewHistory's do.
func NewGreedyDualDense(capacity uint64, universe int) *GreedyDual {
	return &GreedyDual{
		slot:     newSlotTable(universe),
		freeNode: -1, freeClass: -1,
		capacity: capacity,
	}
}

// Name implements Policy.
func (c *GreedyDual) Name() string { return "greedy-dual" }

// before orders nodes by (H, seq).
func (c *GreedyDual) before(a, b int32) bool {
	x, y := &c.nodes[a], &c.nodes[b]
	if x.h != y.h {
		return x.h < y.h
	}
	return x.seq < y.seq
}

// headBefore orders heads positions i and j by their classes' heads.
func (c *GreedyDual) headBefore(i, j int) bool {
	return c.before(c.classes[c.heads[i]].head, c.classes[c.heads[j]].head)
}

// Access implements Policy.  A hit restores the object's H value to
// L + Cost/Size with the current inflation and moves it to the tail of
// its class.
func (c *GreedyDual) Access(obj trace.ObjectID) bool {
	s, ok := c.slot.get(obj)
	if ok {
		c.refresh(s)
	}
	return ok
}

// Add implements Policy.
func (c *GreedyDual) Add(e Entry) []Entry {
	if !addable(c.Name(), e, c.Contains(e.Obj), c.capacity) {
		return nil
	}
	c.add(e, e.Cost/float64(e.Size))
	return c.scratch
}

// add caches e, which addable admitted, in the class of ratio after
// evicting into scratch until it fits, and returns its node.
func (c *GreedyDual) add(e Entry, ratio float64) int32 {
	c.scratch = c.scratch[:0]
	for c.used+uint64(e.Size) > c.capacity {
		v := c.victim()
		// The inflation rises to the last victim's H value; every later
		// placement and refresh builds on it.
		c.inflation = c.nodes[v].h
		c.scratch = append(c.scratch, c.release(v))
	}
	s := c.freeNode
	if s >= 0 {
		c.freeNode = c.nodes[s].next
	} else {
		s = int32(len(c.nodes))
		c.nodes = append(c.nodes, gdNode{})
	}
	c.nodes[s] = gdNode{Entry: e}
	c.slot.put(e.Obj, s)
	c.used += uint64(e.Size)
	c.place(s, c.class(ratio))
	return s
}

// move re-places the cached node s in the class of ratio, as a hit
// with a new ratio: its H value becomes L + ratio and it goes to the
// tail of that class.
func (c *GreedyDual) move(s int32, ratio float64) {
	from, to := c.nodes[s].class, c.class(ratio)
	if to == from {
		c.refresh(s)
		return
	}
	wasHead := c.classes[from].head == s
	c.unlink(s)
	switch {
	case c.classes[from].head < 0:
		c.retire(from)
	case wasHead:
		c.headRose(from)
	}
	c.place(s, to)
}

// refresh restores node s's H value to L + its class's ratio with the
// current inflation and moves it to the tail of its class.
func (c *GreedyDual) refresh(s int32) {
	n := &c.nodes[s]
	k := &c.classes[n.class]
	c.seq++
	n.h, n.seq = c.inflation+k.ratio, c.seq
	wasHead := k.head == s
	if k.tail != s {
		c.unlink(s)
		c.link(n.class, s)
	}
	if wasHead {
		c.headRose(n.class)
	}
}

// place gives node s, in no class, the H value L + class k's ratio and
// appends it to k's tail, listing k among the heads if s is its first
// node.
func (c *GreedyDual) place(s, k int32) {
	c.seq++
	n := &c.nodes[s]
	n.h, n.seq, n.class = c.inflation+c.classes[k].ratio, c.seq, k
	first := c.classes[k].head < 0
	c.link(k, s)
	if first {
		c.addHead(k)
	}
}

// victim returns the node with the least (H, seq): the head of the
// class at the heap's root.
func (c *GreedyDual) victim() int32 {
	return c.classes[c.heads[0]].head
}

// class returns the live class of the given ratio, making it (with no
// nodes and not yet among the heads) if there is none.
func (c *GreedyDual) class(ratio float64) int32 {
	if k, ok := c.classOf.get(trace.ObjectID(math.Float64bits(ratio))); ok {
		return k
	}
	k := c.freeClass
	if k >= 0 {
		c.freeClass = c.classes[k].pos
	} else {
		k = int32(len(c.classes))
		c.classes = append(c.classes, gdClass{})
	}
	c.classes[k] = gdClass{ratio: ratio, head: -1, tail: -1, pos: -1}
	return k
}

// ratioKey is the classOf key of class k.
func (c *GreedyDual) ratioKey(k int32) trace.ObjectID {
	return trace.ObjectID(math.Float64bits(c.classes[k].ratio))
}

// addHead lists the class k, which just got its first node, among the
// live classes.
func (c *GreedyDual) addHead(k int32) {
	c.classOf.put(c.ratioKey(k), k)
	c.classes[k].pos = int32(len(c.heads))
	c.heads = append(c.heads, k)
	c.up(len(c.heads) - 1)
}

// headRose restores the heads' order after class k's head key rose: its
// head was refreshed or replaced by the next node.
func (c *GreedyDual) headRose(k int32) {
	c.down(int(c.classes[k].pos))
}

// release unlinks node s, frees its slot and returns its entry; its
// class is retired if that empties it.
func (c *GreedyDual) release(s int32) Entry {
	n := &c.nodes[s]
	k := n.class
	wasHead := c.classes[k].head == s
	c.unlink(s)
	c.slot.delete(n.Obj)
	c.used -= uint64(n.Size)
	n.next, c.freeNode = c.freeNode, s
	switch {
	case c.classes[k].head < 0:
		c.retire(k)
	case wasHead:
		c.headRose(k)
	}
	return n.Entry
}

// retire drops the emptied class k from the heads and frees it.
func (c *GreedyDual) retire(k int32) {
	c.classOf.delete(c.ratioKey(k))
	i, last := int(c.classes[k].pos), len(c.heads)-1
	moved := c.heads[last]
	c.heads = c.heads[:last]
	if i < last {
		c.heads[i] = moved
		c.classes[moved].pos = int32(i)
		c.down(i)
		c.up(int(c.classes[moved].pos))
	}
	c.classes[k].pos, c.freeClass = c.freeClass, k
}

// unlink takes node s out of its class's FIFO.
func (c *GreedyDual) unlink(s int32) {
	n := &c.nodes[s]
	k := &c.classes[n.class]
	if n.prev >= 0 {
		c.nodes[n.prev].next = n.next
	} else {
		k.head = n.next
	}
	if n.next >= 0 {
		c.nodes[n.next].prev = n.prev
	} else {
		k.tail = n.prev
	}
}

// link appends node s at the tail of class k.
func (c *GreedyDual) link(k, s int32) {
	cl := &c.classes[k]
	n := &c.nodes[s]
	n.prev, n.next = cl.tail, -1
	if cl.tail >= 0 {
		c.nodes[cl.tail].next = s
	} else {
		cl.head = s
	}
	cl.tail = s
}

// swapHeads exchanges heads positions i and j.
func (c *GreedyDual) swapHeads(i, j int) {
	h := c.heads
	h[i], h[j] = h[j], h[i]
	c.classes[h[i]].pos, c.classes[h[j]].pos = int32(i), int32(j)
}

func (c *GreedyDual) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !c.headBefore(i, parent) {
			break
		}
		c.swapHeads(i, parent)
		i = parent
	}
}

func (c *GreedyDual) down(i int) {
	n := len(c.heads)
	for {
		l, r := 2*i+1, 2*i+2
		child := l
		if r < n && c.headBefore(r, l) {
			child = r
		}
		if child >= n || !c.headBefore(child, i) {
			break
		}
		c.swapHeads(i, child)
		i = child
	}
}

// Remove implements Policy.
func (c *GreedyDual) Remove(obj trace.ObjectID) (Entry, bool) {
	s, ok := c.slot.get(obj)
	if !ok {
		return Entry{}, false
	}
	return c.release(s), true
}

// Contains implements Policy.
func (c *GreedyDual) Contains(obj trace.ObjectID) bool { return c.slot.has(obj) }

// Peek implements Policy.
func (c *GreedyDual) Peek(obj trace.ObjectID) (Entry, bool) {
	if s, ok := c.slot.get(obj); ok {
		return c.nodes[s].Entry, true
	}
	return Entry{}, false
}

// Len implements Policy.
func (c *GreedyDual) Len() int { return c.slot.len() }

// Used implements Policy.
func (c *GreedyDual) Used() uint64 { return c.used }

// Capacity implements Policy.
func (c *GreedyDual) Capacity() uint64 { return c.capacity }

// Objects implements Policy.
func (c *GreedyDual) Objects() []trace.ObjectID {
	out := make([]trace.ObjectID, 0, c.Len())
	for _, k := range c.heads {
		for s := c.classes[k].head; s >= 0; s = c.nodes[s].next {
			out = append(out, c.nodes[s].Obj)
		}
	}
	slices.Sort(out)
	return out
}

// HValue exposes the current H value of a cached object for tests and
// the Hier-GD pass-down logic.
func (c *GreedyDual) HValue(obj trace.ObjectID) (float64, bool) {
	if s, ok := c.slot.get(obj); ok {
		return c.nodes[s].h, true
	}
	return 0, false
}

// Inflation exposes the current L value.
func (c *GreedyDual) Inflation() float64 { return c.inflation }

var _ Policy = (*GreedyDual)(nil)
