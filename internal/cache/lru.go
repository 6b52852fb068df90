package cache

import (
	"slices"

	"webcache/internal/trace"
)

// LRU is a least-recently-used cache.  It is not one of the paper's
// headline policies but serves as a baseline comparator (the paper
// cites Korupolu & Dahlin's finding that greedy-dual beats LRU and LFU,
// which TestGreedyDualBeatsLRUOnMixedCosts reproduces).
type LRU struct {
	capacity uint64
	used     uint64
	index    slotTable // id -> index into nodes
	// nodes is a slab holding a doubly linked list through int32 links.
	// nodes[0] is its sentinel: nodes[0].next is the most recently
	// used, nodes[0].prev the eviction victim.
	nodes []lruNode
	// free chains recycled nodes (via next; 0 = none) so steady-state
	// Add reuses the nodes its own evictions release instead of growing
	// the slab.
	free int32
	// scratch backs the slice Add returns; see Policy.Add.
	scratch []Entry
}

type lruNode struct {
	entry      Entry
	prev, next int32
}

// NewLRU returns an LRU cache holding at most capacity size units.
func NewLRU(capacity uint64) *LRU {
	return &LRU{capacity: capacity, nodes: make([]lruNode, 1)}
}

// Name implements Policy.
func (c *LRU) Name() string { return "lru" }

func (c *LRU) unlink(i int32) {
	n := &c.nodes[i]
	c.nodes[n.prev].next = n.next
	c.nodes[n.next].prev = n.prev
}

// drop takes node i out of the cache and onto the free list.
func (c *LRU) drop(i int32) Entry {
	c.unlink(i)
	n := &c.nodes[i]
	c.index.delete(n.entry.Obj)
	c.used -= uint64(n.entry.Size)
	n.next, c.free = c.free, i
	return n.entry
}

func (c *LRU) pushFront(i int32) {
	head := c.nodes[0].next
	c.nodes[i].prev, c.nodes[i].next = 0, head
	c.nodes[head].prev = i
	c.nodes[0].next = i
}

// Access implements Policy.
func (c *LRU) Access(obj trace.ObjectID) bool {
	i, ok := c.index.get(obj)
	if !ok {
		return false
	}
	c.unlink(i)
	c.pushFront(i)
	return true
}

// Add implements Policy.
func (c *LRU) Add(e Entry) []Entry {
	if !addable(c.Name(), e, c.Contains(e.Obj), c.capacity) {
		return nil
	}
	c.scratch = c.scratch[:0]
	for c.used+uint64(e.Size) > c.capacity {
		c.scratch = append(c.scratch, c.drop(c.nodes[0].prev))
	}
	i := c.free
	if i != 0 {
		c.free = c.nodes[i].next
	} else {
		i = int32(len(c.nodes))
		c.nodes = append(c.nodes, lruNode{})
	}
	c.nodes[i].entry = e
	c.index.put(e.Obj, i)
	c.pushFront(i)
	c.used += uint64(e.Size)
	return c.scratch
}

// Remove implements Policy.
func (c *LRU) Remove(obj trace.ObjectID) (Entry, bool) {
	i, ok := c.index.get(obj)
	if !ok {
		return Entry{}, false
	}
	return c.drop(i), true
}

// Contains implements Policy.
func (c *LRU) Contains(obj trace.ObjectID) bool { return c.index.has(obj) }

// Peek implements Policy.
func (c *LRU) Peek(obj trace.ObjectID) (Entry, bool) {
	i, ok := c.index.get(obj)
	if !ok {
		return Entry{}, false
	}
	return c.nodes[i].entry, true
}

// Len implements Policy.
func (c *LRU) Len() int { return c.index.len() }

// Used implements Policy.
func (c *LRU) Used() uint64 { return c.used }

// Capacity implements Policy.
func (c *LRU) Capacity() uint64 { return c.capacity }

var _ Policy = (*LRU)(nil)

// Objects lists the cached object ids in ascending order.
func (c *LRU) Objects() []trace.ObjectID {
	out := make([]trace.ObjectID, 0, c.Len())
	for i := c.nodes[0].next; i != 0; i = c.nodes[i].next {
		out = append(out, c.nodes[i].entry.Obj)
	}
	slices.Sort(out)
	return out
}
