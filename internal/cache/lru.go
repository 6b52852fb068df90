package cache

import (
	"slices"

	"webcache/internal/trace"
)

// LRU is a least-recently-used cache.  It is not one of the paper's
// headline policies but serves as a baseline comparator (the paper
// cites Korupolu & Dahlin's finding that greedy-dual beats LRU and LFU,
// which BenchmarkBelady and the scheme tests reproduce).
type LRU struct {
	capacity uint64
	used     uint64
	entries  map[trace.ObjectID]*lruNode
	// Doubly linked list through sentinel: head.next is most recently
	// used, sentinel.prev is the eviction victim.
	sentinel lruNode
	// free chains recycled nodes (via next) so steady-state Add reuses
	// the nodes its own evictions release instead of allocating.
	free *lruNode
	// scratch backs the slice Add returns; see Policy.Add.
	scratch []Entry
}

type lruNode struct {
	entry      Entry
	prev, next *lruNode
}

// NewLRU returns an LRU cache holding at most capacity size units.
func NewLRU(capacity uint64) *LRU {
	c := &LRU{
		capacity: capacity,
		entries:  make(map[trace.ObjectID]*lruNode),
	}
	c.sentinel.prev = &c.sentinel
	c.sentinel.next = &c.sentinel
	return c
}

// Name implements Policy.
func (c *LRU) Name() string { return "lru" }

func (c *LRU) unlink(n *lruNode) {
	n.prev.next = n.next
	n.next.prev = n.prev
}

// drop takes n out of the cache and onto the free list.
func (c *LRU) drop(n *lruNode) Entry {
	c.unlink(n)
	delete(c.entries, n.entry.Obj)
	c.used -= uint64(n.entry.Size)
	n.prev = nil
	n.next = c.free
	c.free = n
	return n.entry
}

func (c *LRU) pushFront(n *lruNode) {
	n.next = c.sentinel.next
	n.prev = &c.sentinel
	n.next.prev = n
	c.sentinel.next = n
}

// Access implements Policy.
func (c *LRU) Access(obj trace.ObjectID) bool {
	n, ok := c.entries[obj]
	if !ok {
		return false
	}
	c.unlink(n)
	c.pushFront(n)
	return true
}

// Add implements Policy.
func (c *LRU) Add(e Entry) []Entry {
	if !addable(c.Name(), e, c.Contains(e.Obj), c.capacity) {
		return nil
	}
	c.scratch = c.scratch[:0]
	for c.used+uint64(e.Size) > c.capacity {
		c.scratch = append(c.scratch, c.drop(c.sentinel.prev))
	}
	n := c.free
	if n != nil {
		c.free = n.next
		n.entry = e
		n.next = nil
	} else {
		n = &lruNode{entry: e}
	}
	c.entries[e.Obj] = n
	c.pushFront(n)
	c.used += uint64(e.Size)
	return c.scratch
}

// Remove implements Policy.
func (c *LRU) Remove(obj trace.ObjectID) (Entry, bool) {
	n, ok := c.entries[obj]
	if !ok {
		return Entry{}, false
	}
	return c.drop(n), true
}

// Contains implements Policy.
func (c *LRU) Contains(obj trace.ObjectID) bool {
	_, ok := c.entries[obj]
	return ok
}

// Peek implements Policy.
func (c *LRU) Peek(obj trace.ObjectID) (Entry, bool) {
	n, ok := c.entries[obj]
	if !ok {
		return Entry{}, false
	}
	return n.entry, true
}

// Len implements Policy.
func (c *LRU) Len() int { return len(c.entries) }

// Used implements Policy.
func (c *LRU) Used() uint64 { return c.used }

// Capacity implements Policy.
func (c *LRU) Capacity() uint64 { return c.capacity }

var _ Policy = (*LRU)(nil)

// Objects lists the cached object ids in ascending order.
func (c *LRU) Objects() []trace.ObjectID {
	out := make([]trace.ObjectID, 0, len(c.entries))
	for obj := range c.entries {
		out = append(out, obj)
	}
	slices.Sort(out)
	return out
}
