package cache

import (
	"slices"

	"webcache/internal/trace"
)

// LFU is a perfect-frequency least-frequently-used cache.  The paper's
// NC, SC, NC-EC and SC-EC schemes "implement the LFU replacement
// policy" (§5.1); counts persist across evictions, the classic
// "perfect frequency knowledge" variant the paper's upper-bound framing
// implies.
//
// Eviction takes the minimum-frequency object, breaking ties by least
// recent touch.  Cached objects sit in frequency buckets (Shah, Mitra &
// Matani 2010): a doubly-linked list of non-empty buckets in ascending
// count, each a FIFO of slab nodes.  A touch moves a node to the tail
// of its new count's bucket, so within a bucket nodes run in order of
// last touch, and the victim is the head of the lowest bucket.  That is
// the (key, seq) order of a min-heap keyed by count whose every push
// and update takes a fresh sequence number.
type LFU struct {
	nodes   []lfuNode
	buckets []lfuBucket
	slot    slotTable // id -> index into nodes
	history *History
	lowest  int32 // lowest-count bucket; -1 when empty
	// freeNode and freeBucket chain released slab slots through next;
	// -1 = none.
	freeNode, freeBucket int32
	used, capacity       uint64
	// scratch backs the slice Add returns; reused across calls so the
	// steady-state eviction path never allocates (see Policy.Add).
	scratch []Entry
}

// lfuNode is one cached entry, linked into its bucket's FIFO.
type lfuNode struct {
	Entry
	bucket     int32
	prev, next int32 // older and newer neighbours in the bucket; -1 at the ends
}

// lfuBucket holds the cached objects whose count (their history count
// when last placed) is count, oldest first.
type lfuBucket struct {
	count      uint64
	head, tail int32 // oldest and newest node
	prev, next int32 // buckets of the next lower and higher count; -1 at the ends
}

// History is the perfect-LFU reference count of every object seen,
// cached or not.  Ids below the universe given to NewHistory count at
// their own index of count; other ids are appended past the universe
// behind an id -> index slotTable.
type History struct {
	count    []uint64
	universe int
	index    slotTable // ids at or above universe -> index into count
}

// NewHistory returns an empty history whose ids below universe (a
// trace's NumObjects; 0 declares none) are counted in a plain array.
func NewHistory(universe int) *History {
	return &History{count: make([]uint64, universe), universe: universe}
}

// Count reports how often obj was referenced (0 if never).
func (h *History) Count(obj trace.ObjectID) uint64 {
	if uint64(obj) < uint64(h.universe) {
		return h.count[obj]
	}
	if i, ok := h.index.get(obj); ok {
		return h.count[i]
	}
	return 0
}

// bump counts one more reference to obj and returns the new count.
func (h *History) bump(obj trace.ObjectID) uint64 {
	if uint64(obj) < uint64(h.universe) {
		h.count[obj]++
		return h.count[obj]
	}
	i, ok := h.index.get(obj)
	if !ok {
		i = int32(len(h.count))
		h.index.put(obj, i)
		h.count = append(h.count, 0)
	}
	h.count[i]++
	return h.count[i]
}

// NewPerfectLFU returns a perfect-frequency LFU cache with its own
// history, which declares no universe: any id takes the hashed path.
func NewPerfectLFU(capacity uint64) *LFU { return NewPerfectLFUShared(capacity, NewHistory(0)) }

// NewPerfectLFUShared returns a perfect-frequency LFU cache whose
// frequency history is the caller-provided one.  Passing the same
// history to several caches makes them agree on object frequencies —
// the EC schemes use this so the proxy tier and client tier of a
// unified cache rank objects consistently.  Ids below the history's
// universe index the cache's nodes directly too.
func NewPerfectLFUShared(capacity uint64, history *History) *LFU {
	return &LFU{
		slot:     newSlotTable(history.universe),
		history:  history,
		lowest:   -1,
		freeNode: -1, freeBucket: -1,
		capacity: capacity,
	}
}

// Name implements Policy.
func (c *LFU) Name() string { return "lfu-perfect" }

// RecordMiss counts a reference to an object that is not cached, so
// its history is warm when it is next added.
func (c *LFU) RecordMiss(obj trace.ObjectID) { c.history.bump(obj) }

// Access implements Policy.
func (c *LFU) Access(obj trace.ObjectID) bool {
	s, ok := c.slot.get(obj)
	if !ok {
		return false
	}
	c.attach(s, c.history.bump(obj), c.detach(s))
	return true
}

// Add implements Policy.
func (c *LFU) Add(e Entry) []Entry {
	if !addable(c.Name(), e, c.Contains(e.Obj), c.capacity) {
		return nil
	}
	c.scratch = c.scratch[:0]
	for c.used+uint64(e.Size) > c.capacity {
		c.scratch = append(c.scratch, c.release(c.buckets[c.lowest].head))
	}
	s := c.freeNode
	if s >= 0 {
		c.freeNode = c.nodes[s].next
	} else {
		s = int32(len(c.nodes))
		c.nodes = append(c.nodes, lfuNode{})
	}
	c.nodes[s].Entry = e
	c.slot.put(e.Obj, s)
	c.used += uint64(e.Size)
	c.attach(s, c.history.bump(e.Obj), -1)
	return c.scratch
}

// Remove implements Policy.
func (c *LFU) Remove(obj trace.ObjectID) (Entry, bool) {
	s, ok := c.slot.get(obj)
	if !ok {
		return Entry{}, false
	}
	return c.release(s), true
}

// release unlinks node s, frees its slot and returns its entry.
func (c *LFU) release(s int32) Entry {
	c.detach(s)
	n := &c.nodes[s]
	c.slot.delete(n.Obj)
	c.used -= uint64(n.Size)
	n.next, c.freeNode = c.freeNode, s
	return n.Entry
}

// detach unlinks node s from its bucket, releasing the bucket if that
// empties it, and returns the highest bucket known to count less than
// any count s may move to: its bucket if that stays, else the one
// below (-1 for none).
func (c *LFU) detach(s int32) int32 {
	n := &c.nodes[s]
	bi := n.bucket
	b := &c.buckets[bi]
	if n.prev >= 0 {
		c.nodes[n.prev].next = n.next
	} else {
		b.head = n.next
	}
	if n.next >= 0 {
		c.nodes[n.next].prev = n.prev
	} else {
		b.tail = n.prev
	}
	if b.head >= 0 {
		return bi
	}
	below := b.prev
	if b.prev >= 0 {
		c.buckets[b.prev].next = b.next
	} else {
		c.lowest = b.next
	}
	if b.next >= 0 {
		c.buckets[b.next].prev = b.prev
	}
	b.next, c.freeBucket = c.freeBucket, bi
	return below
}

// attach appends node s to the bucket of the given count, creating it
// if needed, walking up from the bucket after below (from the lowest
// when below is -1); below must count less than count.
func (c *LFU) attach(s int32, count uint64, below int32) {
	at := c.lowest
	if below >= 0 {
		at = c.buckets[below].next
	}
	for at >= 0 && c.buckets[at].count < count {
		below, at = at, c.buckets[at].next
	}
	if at < 0 || c.buckets[at].count != count {
		at = c.newBucket(count, below, at)
	}
	b := &c.buckets[at]
	n := &c.nodes[s]
	n.bucket, n.prev, n.next = at, b.tail, -1
	if b.tail >= 0 {
		c.nodes[b.tail].next = s
	} else {
		b.head = s
	}
	b.tail = s
}

// newBucket links an empty bucket of the given count between below and
// above (either may be -1) and returns it.
func (c *LFU) newBucket(count uint64, below, above int32) int32 {
	bi := c.freeBucket
	if bi >= 0 {
		c.freeBucket = c.buckets[bi].next
	} else {
		bi = int32(len(c.buckets))
		c.buckets = append(c.buckets, lfuBucket{})
	}
	c.buckets[bi] = lfuBucket{count: count, head: -1, tail: -1, prev: below, next: above}
	if below >= 0 {
		c.buckets[below].next = bi
	} else {
		c.lowest = bi
	}
	if above >= 0 {
		c.buckets[above].prev = bi
	}
	return bi
}

// Contains implements Policy.
func (c *LFU) Contains(obj trace.ObjectID) bool { return c.slot.has(obj) }

// Peek implements Policy.
func (c *LFU) Peek(obj trace.ObjectID) (Entry, bool) {
	if s, ok := c.slot.get(obj); ok {
		return c.nodes[s].Entry, true
	}
	return Entry{}, false
}

// Len implements Policy.
func (c *LFU) Len() int { return c.slot.len() }

// Used implements Policy.
func (c *LFU) Used() uint64 { return c.used }

// Capacity implements Policy.
func (c *LFU) Capacity() uint64 { return c.capacity }

// Objects implements Policy.
func (c *LFU) Objects() []trace.ObjectID {
	out := make([]trace.ObjectID, 0, c.Len())
	for b := c.lowest; b >= 0; b = c.buckets[b].next {
		for s := c.buckets[b].head; s >= 0; s = c.nodes[s].next {
			out = append(out, c.nodes[s].Obj)
		}
	}
	slices.Sort(out)
	return out
}

// Frequency reports obj's reference count in the history (0 if never
// seen), exposed for tests and metrics.
func (c *LFU) Frequency(obj trace.ObjectID) uint64 { return c.history.Count(obj) }

var _ Policy = (*LFU)(nil)
