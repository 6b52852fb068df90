package cache

import (
	"slices"

	"webcache/internal/trace"
)

// keyedHeap is the slab the heap-ordered policies (GDSF, Belady) keep
// all per-object state in: a node holds the cached Entry,
// its position in the heap and the policy's per-object scalar.
// A slotTable resolves an object id to its slot, the only hashed lookup
// an operation needs.  The binary min-heap holds items that carry their
// own float64 key and tie-break sequence beside the slot, so a sift
// step compares and moves heap elements without reading the slab.  Ties
// break by insertion sequence (FIFO), which makes every policy built on
// it fully deterministic.
//
// Slots released by remove/popMin are recycled before the slab grows.
type keyedHeap struct {
	nodes []node
	order []item    // min-heap by (key, seq)
	slot  slotTable // id -> index into nodes
	free  int32     // recycled slots, chained through node.idx; -1 = none
	seq   uint64
	used  uint64 // total Size of the held entries
}

type node struct {
	Entry
	freq float64 // GDSF's in-cache frequency
	idx  int32   // position in order; on the free list, the next free slot
}

// item is one heap element: the ordering key of the node at slot s.
type item struct {
	key float64
	seq uint64
	s   int32
}

// less orders items by key, then insertion order.
func (a item) less(b item) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

func newKeyedHeap() keyedHeap { return keyedHeap{free: -1} }

// Len implements Policy.
func (h *keyedHeap) Len() int { return len(h.order) }

// Used implements Policy.
func (h *keyedHeap) Used() uint64 { return h.used }

// find returns obj's node, valid until the next push.
func (h *keyedHeap) find(obj trace.ObjectID) (*node, bool) {
	s, ok := h.slot.get(obj)
	if !ok {
		return nil, false
	}
	return &h.nodes[s], true
}

// Contains implements Policy.
func (h *keyedHeap) Contains(obj trace.ObjectID) bool { return h.slot.has(obj) }

// Peek implements Policy.
func (h *keyedHeap) Peek(obj trace.ObjectID) (Entry, bool) {
	if n, ok := h.find(obj); ok {
		return n.Entry, true
	}
	return Entry{}, false
}

// place puts it at heap position i.
func (h *keyedHeap) place(i int, it item) {
	h.order[i] = it
	h.nodes[it.s].idx = int32(i)
}

func (h *keyedHeap) up(i int) {
	it := h.order[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !it.less(h.order[parent]) {
			break
		}
		h.place(i, h.order[parent])
		i = parent
	}
	h.place(i, it)
}

func (h *keyedHeap) down(i int) {
	it, n := h.order[i], len(h.order)
	for {
		l, r := 2*i+1, 2*i+2
		child := l
		if r < n && h.order[r].less(h.order[l]) {
			child = r
		}
		if child >= n || !h.order[child].less(it) {
			break
		}
		h.place(i, h.order[child])
		i = child
	}
	h.place(i, it)
}

// push inserts e with the given key and returns its node; e.Obj must
// not be present (the policies' Add checks before it evicts).
func (h *keyedHeap) push(e Entry, key float64) *node {
	s := h.free
	if s >= 0 {
		h.free = h.nodes[s].idx
	} else {
		s = int32(len(h.nodes))
		h.nodes = append(h.nodes, node{})
	}
	h.seq++
	h.nodes[s] = node{Entry: e}
	h.slot.put(e.Obj, s)
	h.used += uint64(e.Size)
	h.order = append(h.order, item{key, h.seq, s})
	h.up(len(h.order) - 1)
	return &h.nodes[s]
}

// update changes n's key (and refreshes its tie-break sequence so
// equal-key re-touches behave FIFO-by-last-touch).
func (h *keyedHeap) update(n *node, key float64) {
	h.seq++
	i := int(n.idx)
	it := &h.order[i]
	old := it.key
	it.key, it.seq = key, h.seq
	if key < old {
		h.up(i)
	} else {
		h.down(i)
	}
}

// minKey peeks at the minimum key without removing its entry.
func (h *keyedHeap) minKey() (float64, bool) {
	if len(h.order) == 0 {
		return 0, false
	}
	return h.order[0].key, true
}

// popMin removes the minimum-key entry and returns it with its key.
func (h *keyedHeap) popMin() (Entry, float64) {
	if len(h.order) == 0 {
		panic("cache: keyedHeap.popMin: empty heap")
	}
	top := h.order[0]
	e := h.nodes[top.s].Entry
	h.removeAt(0)
	return e, top.key
}

// Remove implements Policy.
func (h *keyedHeap) Remove(obj trace.ObjectID) (Entry, bool) {
	n, ok := h.find(obj)
	if !ok {
		return Entry{}, false
	}
	e := n.Entry
	h.removeAt(int(n.idx))
	return e, true
}

func (h *keyedHeap) removeAt(i int) {
	s := h.order[i].s
	n := &h.nodes[s]
	h.slot.delete(n.Obj)
	h.used -= uint64(n.Size)
	n.idx, h.free = h.free, s
	last := len(h.order) - 1
	moved := h.order[last]
	h.order = h.order[:last]
	if i < last {
		h.place(i, moved)
		h.down(i)
		h.up(int(h.nodes[moved.s].idx))
	}
}

// Objects lists the held ids in ascending order.
func (h *keyedHeap) Objects() []trace.ObjectID {
	out := make([]trace.ObjectID, len(h.order))
	for i, it := range h.order {
		out[i] = h.nodes[it.s].Obj
	}
	slices.Sort(out)
	return out
}

// heapCache is a keyedHeap with a capacity: together they implement
// every Policy method that does not depend on how a policy computes its
// keys.  The heap-ordered policies embed it.
type heapCache struct {
	keyedHeap
	capacity uint64
	// scratch backs the slice Add returns; reused across calls so the
	// steady-state eviction path never allocates (see Policy.Add).
	scratch []Entry
}

func newHeapCache(capacity uint64) heapCache {
	return heapCache{keyedHeap: newKeyedHeap(), capacity: capacity}
}

// admit reports whether Add may cache e (see addable).
func (c *heapCache) admit(name string, e Entry) bool {
	return addable(name, e, c.Contains(e.Obj), c.capacity)
}

// makeRoom evicts minimum-key entries into scratch until need more
// units fit, and returns the key of the last victim (GDSF's
// inflation), ok=false when nothing had to go.
func (c *heapCache) makeRoom(need uint32) (victimKey float64, ok bool) {
	c.scratch = c.scratch[:0]
	for c.used+uint64(need) > c.capacity {
		var victim Entry
		victim, victimKey = c.popMin()
		c.scratch = append(c.scratch, victim)
	}
	return victimKey, len(c.scratch) > 0
}

// Capacity implements Policy.
func (c *heapCache) Capacity() uint64 { return c.capacity }
