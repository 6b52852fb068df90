package cache

import (
	"slices"

	"webcache/internal/trace"
)

// keyedHeap is the slab the heap-ordered policies (LFU, greedy-dual,
// GDSF, Belady) keep all per-object state in: a node holds the cached
// Entry, its float64 priority, the tie-break sequence, its position in
// the heap and the policy's per-object scalar.  One map resolves an
// object id to its slot — the only hashed lookup an operation needs —
// and the binary min-heap orders slot numbers, so a sift step writes
// slice elements, never a map.  Ties break by insertion sequence
// (FIFO), which makes every policy built on it fully deterministic.
//
// Ids stay arbitrary 64-bit values (the live store feeds folded URL
// hashes), so there is no dense id-indexed table here; slots released
// by remove/popMin are recycled before the slab grows.
type keyedHeap struct {
	nodes []node
	order []int32                  // min-heap of slots by (key, seq)
	slot  map[trace.ObjectID]int32 // id -> index into nodes
	free  int32                    // recycled slots, chained through node.idx; -1 = none
	seq   uint64
	used  uint64 // total Size of the held entries
}

type node struct {
	Entry
	key  float64
	seq  uint64
	freq float64 // GDSF's in-cache frequency
	idx  int32   // position in order; on the free list, the next free slot
}

func newKeyedHeap(hint int) keyedHeap {
	return keyedHeap{slot: make(map[trace.ObjectID]int32, hint), free: -1}
}

// Len implements Policy.
func (h *keyedHeap) Len() int { return len(h.order) }

// Used implements Policy.
func (h *keyedHeap) Used() uint64 { return h.used }

// find returns obj's node, valid until the next push.
func (h *keyedHeap) find(obj trace.ObjectID) (*node, bool) {
	s, ok := h.slot[obj]
	if !ok {
		return nil, false
	}
	return &h.nodes[s], true
}

// Contains implements Policy.
func (h *keyedHeap) Contains(obj trace.ObjectID) bool {
	_, ok := h.slot[obj]
	return ok
}

// Peek implements Policy.
func (h *keyedHeap) Peek(obj trace.ObjectID) (Entry, bool) {
	if n, ok := h.find(obj); ok {
		return n.Entry, true
	}
	return Entry{}, false
}

// less orders slots by key, then insertion order.
func (h *keyedHeap) less(a, b int32) bool {
	x, y := &h.nodes[a], &h.nodes[b]
	if x.key != y.key {
		return x.key < y.key
	}
	return x.seq < y.seq
}

// place puts slot s at heap position i.
func (h *keyedHeap) place(i int, s int32) {
	h.order[i] = s
	h.nodes[s].idx = int32(i)
}

func (h *keyedHeap) up(i int) {
	s := h.order[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(s, h.order[parent]) {
			break
		}
		h.place(i, h.order[parent])
		i = parent
	}
	h.place(i, s)
}

func (h *keyedHeap) down(i int) {
	s, n := h.order[i], len(h.order)
	for {
		l, r := 2*i+1, 2*i+2
		child := l
		if r < n && h.less(h.order[r], h.order[l]) {
			child = r
		}
		if child >= n || !h.less(h.order[child], s) {
			break
		}
		h.place(i, h.order[child])
		i = child
	}
	h.place(i, s)
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
	h.nodes[s] = node{Entry: e, key: key, seq: h.seq}
	h.slot[e.Obj] = s
	h.used += uint64(e.Size)
	h.order = append(h.order, s)
	h.up(len(h.order) - 1)
	return &h.nodes[s]
}

// update changes n's key (and refreshes its tie-break sequence so
// equal-key re-touches behave FIFO-by-last-touch).
func (h *keyedHeap) update(n *node, key float64) {
	h.seq++
	old := n.key
	n.key, n.seq = key, h.seq
	if key < old {
		h.up(int(n.idx))
	} else {
		h.down(int(n.idx))
	}
}

// min peeks at the minimum-key node without removing it.
func (h *keyedHeap) min() (*node, bool) {
	if len(h.order) == 0 {
		return nil, false
	}
	return &h.nodes[h.order[0]], true
}

// popMin removes the minimum-key entry and returns it with its key.
func (h *keyedHeap) popMin() (Entry, float64) {
	n, ok := h.min()
	if !ok {
		panic("cache: keyedHeap.popMin: empty heap")
	}
	e, key := n.Entry, n.key
	h.removeAt(0)
	return e, key
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
	s := h.order[i]
	n := &h.nodes[s]
	delete(h.slot, n.Obj)
	h.used -= uint64(n.Size)
	n.idx, h.free = h.free, s
	last := len(h.order) - 1
	moved := h.order[last]
	h.order = h.order[:last]
	if i < last {
		h.place(i, moved)
		h.down(i)
		h.up(int(h.nodes[moved].idx))
	}
}

// Objects lists the held ids in ascending order.
func (h *keyedHeap) Objects() []trace.ObjectID {
	out := make([]trace.ObjectID, len(h.order))
	for i, s := range h.order {
		out[i] = h.nodes[s].Obj
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
	return heapCache{keyedHeap: newKeyedHeap(64), capacity: capacity}
}

// admit reports whether Add may cache e (see addable).
func (c *heapCache) admit(name string, e Entry) bool {
	return addable(name, e, c.Contains(e.Obj), c.capacity)
}

// makeRoom evicts minimum-key entries into scratch until need more
// units fit, and returns the key of the last victim (the greedy-dual
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
