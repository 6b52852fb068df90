package cache

// The map-per-attribute policies this package shipped before the slab
// layout (refKeyedHeap with a position map, and LFU / GreedyDual / GDSF
// each keeping entries and frequencies in maps beside it), kept
// verbatim under ref* names as the oracle for differential_test.go.
// Test-only: nothing in the product tree refers to them.

import (
	"fmt"
	"sort"

	"webcache/internal/trace"
)

// refKeyedHeap is a binary min-heap over objects keyed by a float64
// priority, with a position index for in-place key updates and
// removals.  Ties break by insertion sequence (FIFO), which makes every
// policy built on it fully deterministic.
//
// It is the engine under both the LFU policy (key = frequency) and the
// greedy-dual policy (key = H value).
type refKeyedHeap struct {
	items []refHeapItem
	pos   map[trace.ObjectID]int
	seq   uint64
}

type refHeapItem struct {
	obj trace.ObjectID
	key float64
	seq uint64
}

func newRefKeyedHeap(hint int) *refKeyedHeap {
	return &refKeyedHeap{pos: make(map[trace.ObjectID]int, hint)}
}

func (h *refKeyedHeap) len() int { return len(h.items) }

func (h *refKeyedHeap) contains(obj trace.ObjectID) bool {
	_, ok := h.pos[obj]
	return ok
}

// less orders by key, then insertion order.
func (h *refKeyedHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

func (h *refKeyedHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i].obj] = i
	h.pos[h.items[j].obj] = j
}

func (h *refKeyedHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *refKeyedHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

// push inserts obj with the given key; obj must not be present.
func (h *refKeyedHeap) push(obj trace.ObjectID, key float64) {
	if _, ok := h.pos[obj]; ok {
		panic("cache: refKeyedHeap.push: duplicate object")
	}
	h.seq++
	h.items = append(h.items, refHeapItem{obj: obj, key: key, seq: h.seq})
	i := len(h.items) - 1
	h.pos[obj] = i
	h.up(i)
}

// update changes obj's key (and refreshes its tie-break sequence so
// equal-key re-touches behave FIFO-by-last-touch).
func (h *refKeyedHeap) update(obj trace.ObjectID, key float64) {
	i, ok := h.pos[obj]
	if !ok {
		panic("cache: refKeyedHeap.update: object not present")
	}
	h.seq++
	old := h.items[i].key
	h.items[i].key = key
	h.items[i].seq = h.seq
	if key < old {
		h.up(i)
	} else {
		h.down(i)
	}
}

// key returns obj's current key.
func (h *refKeyedHeap) key(obj trace.ObjectID) (float64, bool) {
	i, ok := h.pos[obj]
	if !ok {
		return 0, false
	}
	return h.items[i].key, true
}

// popMin removes and returns the minimum-key object.
func (h *refKeyedHeap) popMin() (trace.ObjectID, float64) {
	if len(h.items) == 0 {
		panic("cache: refKeyedHeap.popMin: empty heap")
	}
	top := h.items[0]
	h.removeAt(0)
	return top.obj, top.key
}

// remove deletes obj if present.
func (h *refKeyedHeap) remove(obj trace.ObjectID) bool {
	i, ok := h.pos[obj]
	if !ok {
		return false
	}
	h.removeAt(i)
	return true
}

func (h *refKeyedHeap) removeAt(i int) {
	last := len(h.items) - 1
	delete(h.pos, h.items[i].obj)
	if i != last {
		h.items[i] = h.items[last]
		h.pos[h.items[i].obj] = i
	}
	h.items = h.items[:last]
	if i < last {
		h.down(i)
		h.up(i)
	}
}

// LFU is a perfect-frequency least-frequently-used cache.  The paper's
// NC, SC, NC-EC and SC-EC schemes "implement the LFU replacement
// policy" (§5.1); counts persist across evictions.
//
// Eviction takes the minimum-frequency object, breaking ties by least
// recent touch.
type refLFU struct {
	capacity uint64
	used     uint64
	entries  map[trace.ObjectID]Entry
	heap     *refKeyedHeap
	// history holds persistent counts, including objects not currently
	// cached.
	history map[trace.ObjectID]uint64
	// scratch backs the slice Add returns; see Policy.Add.
	scratch []Entry
}

// newRefPerfectLFU returns a perfect-frequency LFU cache.
func newRefPerfectLFU(capacity uint64) *refLFU {
	return newRefPerfectLFUShared(capacity, make(map[trace.ObjectID]uint64))
}

// newRefPerfectLFUShared returns a perfect-frequency LFU cache whose
// frequency history is the caller-provided map.  Passing the same map
// to several caches makes them agree on object frequencies — the EC
// schemes use this so the proxy tier and client tier of a unified
// cache rank objects consistently.
func newRefPerfectLFUShared(capacity uint64, history map[trace.ObjectID]uint64) *refLFU {
	return &refLFU{
		capacity: capacity,
		entries:  make(map[trace.ObjectID]Entry),
		heap:     newRefKeyedHeap(64),
		history:  history,
	}
}

// Name implements Policy.
func (c *refLFU) Name() string { return "lfu-perfect" }

// RecordMiss counts references to objects that are not cached (so
// their history is warm when they are next added).
func (c *refLFU) RecordMiss(obj trace.ObjectID) { c.history[obj]++ }

// Access implements Policy.
func (c *refLFU) Access(obj trace.ObjectID) bool {
	if _, ok := c.entries[obj]; !ok {
		return false
	}
	c.history[obj]++
	c.heap.update(obj, float64(c.history[obj]))
	return true
}

// Add implements Policy.
func (c *refLFU) Add(e Entry) []Entry {
	_, present := c.entries[e.Obj]
	if err := refCheckAddable(c.Name(), e, present, c.capacity); err != nil {
		return nil
	}
	c.scratch = refEvictFor(e.Size, &c.used, c.capacity, func() Entry {
		obj, _ := c.heap.popMin()
		victim := c.entries[obj]
		delete(c.entries, obj)
		return victim
	}, c.scratch[:0])
	evicted := c.scratch
	c.entries[e.Obj] = e
	c.history[e.Obj]++
	c.heap.push(e.Obj, float64(c.history[e.Obj]))
	c.used += uint64(e.Size)
	return evicted
}

// Remove implements Policy.
func (c *refLFU) Remove(obj trace.ObjectID) (Entry, bool) {
	e, ok := c.entries[obj]
	if !ok {
		return Entry{}, false
	}
	c.heap.remove(obj)
	delete(c.entries, obj)
	c.used -= uint64(e.Size)
	return e, true
}

// Contains implements Policy.
func (c *refLFU) Contains(obj trace.ObjectID) bool {
	_, ok := c.entries[obj]
	return ok
}

// Peek implements Policy.
func (c *refLFU) Peek(obj trace.ObjectID) (Entry, bool) {
	e, ok := c.entries[obj]
	return e, ok
}

// Frequency reports obj's reference count (0 if never seen), exposed
// for tests and metrics.
func (c *refLFU) Frequency(obj trace.ObjectID) uint64 { return c.history[obj] }

// Len implements Policy.
func (c *refLFU) Len() int { return len(c.entries) }

// Used implements Policy.
func (c *refLFU) Used() uint64 { return c.used }

// Capacity implements Policy.
func (c *refLFU) Capacity() uint64 { return c.capacity }

var _ Policy = (*refLFU)(nil)

// Objects lists the cached object ids in ascending order.
func (c *refLFU) Objects() []trace.ObjectID { return refSortedObjects(c.entries) }

// GreedyDual implements the greedy-dual replacement algorithm (Young's
// on-line file caching algorithm, SODA 1998) in its efficient
// inflation-value form, generalized to sizes as GreedyDual-Size (Cao &
// Irani): each cached object carries a value
//
//	H(o) = L + Cost(o)/Size(o)
//
// where L is a monotonically non-decreasing "inflation" set to the H
// value of the last eviction victim.  On a hit, H is refreshed with the
// current L.  Eviction removes the minimum-H object.
//
// Hier-GD (paper §3) runs this algorithm at the proxy and at every
// client cache: objects the proxy evicts are "passed down" into the P2P
// client cache, where the receiving client cache enforces greedy-dual
// again.  Because cost is the fetch latency, greedy-dual implicitly
// coordinates caches: cheap-to-refetch objects (a cooperating proxy
// already has them) are evicted before expensive ones (server-only),
// which is the "implicit cache coordination" Korupolu & Dahlin
// observed.
type refGreedyDual struct {
	capacity  uint64
	used      uint64
	inflation float64
	entries   map[trace.ObjectID]Entry
	heap      *refKeyedHeap
	// scratch backs the slice Add returns; reused across calls so the
	// steady-state eviction path never allocates (see Policy.Add).
	scratch []Entry
}

// newRefGreedyDual returns a greedy-dual cache of the given capacity.
func newRefGreedyDual(capacity uint64) *refGreedyDual {
	return &refGreedyDual{
		capacity: capacity,
		entries:  make(map[trace.ObjectID]Entry),
		heap:     newRefKeyedHeap(64),
	}
}

// Name implements Policy.
func (c *refGreedyDual) Name() string { return "greedy-dual" }

func (c *refGreedyDual) hvalue(e Entry) float64 {
	return c.inflation + e.Cost/float64(e.Size)
}

// Access implements Policy.  A hit restores the object's H value to
// L + Cost/Size with the current inflation.
func (c *refGreedyDual) Access(obj trace.ObjectID) bool {
	e, ok := c.entries[obj]
	if !ok {
		return false
	}
	c.heap.update(obj, c.hvalue(e))
	return true
}

// Add implements Policy.
func (c *refGreedyDual) Add(e Entry) []Entry {
	_, present := c.entries[e.Obj]
	if err := refCheckAddable(c.Name(), e, present, c.capacity); err != nil {
		return nil
	}
	c.scratch = refEvictFor(e.Size, &c.used, c.capacity, func() Entry {
		obj, h := c.heap.popMin()
		// The inflation rises to the victim's H value; every later
		// insertion and refresh builds on it.
		c.inflation = h
		victim := c.entries[obj]
		delete(c.entries, obj)
		return victim
	}, c.scratch[:0])
	evicted := c.scratch
	c.entries[e.Obj] = e
	c.heap.push(e.Obj, c.hvalue(e))
	c.used += uint64(e.Size)
	return evicted
}

// Remove implements Policy.
func (c *refGreedyDual) Remove(obj trace.ObjectID) (Entry, bool) {
	e, ok := c.entries[obj]
	if !ok {
		return Entry{}, false
	}
	c.heap.remove(obj)
	delete(c.entries, obj)
	c.used -= uint64(e.Size)
	return e, true
}

// Contains implements Policy.
func (c *refGreedyDual) Contains(obj trace.ObjectID) bool {
	_, ok := c.entries[obj]
	return ok
}

// Peek implements Policy.
func (c *refGreedyDual) Peek(obj trace.ObjectID) (Entry, bool) {
	e, ok := c.entries[obj]
	return e, ok
}

// HValue exposes the current H value of a cached object for tests and
// the Hier-GD pass-down logic.
func (c *refGreedyDual) HValue(obj trace.ObjectID) (float64, bool) {
	return c.heap.key(obj)
}

// Inflation exposes the current L value.
func (c *refGreedyDual) Inflation() float64 { return c.inflation }

// Len implements Policy.
func (c *refGreedyDual) Len() int { return len(c.entries) }

// Used implements Policy.
func (c *refGreedyDual) Used() uint64 { return c.used }

// Capacity implements Policy.
func (c *refGreedyDual) Capacity() uint64 { return c.capacity }

var _ Policy = (*refGreedyDual)(nil)

// Objects lists the cached object ids in ascending order.
func (c *refGreedyDual) Objects() []trace.ObjectID { return refSortedObjects(c.entries) }

// GDSF implements GreedyDual-Size-Frequency (Cherkasova 1998), the
// frequency-weighted refinement of greedy-dual that became the Squid
// default:
//
//	H(o) = L + Frequency(o) * Cost(o) / Size(o)
//
// It is not part of the paper's design: the daemons and the simulator
// run greedy-dual.
type refGDSF struct {
	capacity  uint64
	used      uint64
	inflation float64
	entries   map[trace.ObjectID]Entry
	freq      map[trace.ObjectID]float64
	heap      *refKeyedHeap
	// scratch backs the slice Add returns; see Policy.Add.
	scratch []Entry
}

// newRefGDSF returns a GDSF cache of the given capacity.
func newRefGDSF(capacity uint64) *refGDSF {
	return &refGDSF{
		capacity: capacity,
		entries:  make(map[trace.ObjectID]Entry),
		freq:     make(map[trace.ObjectID]float64),
		heap:     newRefKeyedHeap(64),
	}
}

// Name implements Policy.
func (c *refGDSF) Name() string { return "gdsf" }

func (c *refGDSF) hvalue(e Entry) float64 {
	return c.inflation + c.freq[e.Obj]*e.Cost/float64(e.Size)
}

// Access implements Policy: a hit bumps the in-cache frequency and
// refreshes H with the current inflation.
func (c *refGDSF) Access(obj trace.ObjectID) bool {
	e, ok := c.entries[obj]
	if !ok {
		return false
	}
	c.freq[obj]++
	c.heap.update(obj, c.hvalue(e))
	return true
}

// Add implements Policy.
func (c *refGDSF) Add(e Entry) []Entry {
	_, present := c.entries[e.Obj]
	if err := refCheckAddable(c.Name(), e, present, c.capacity); err != nil {
		return nil
	}
	c.scratch = refEvictFor(e.Size, &c.used, c.capacity, func() Entry {
		obj, h := c.heap.popMin()
		c.inflation = h
		victim := c.entries[obj]
		delete(c.entries, obj)
		delete(c.freq, obj)
		return victim
	}, c.scratch[:0])
	evicted := c.scratch
	c.entries[e.Obj] = e
	c.freq[e.Obj] = 1
	c.heap.push(e.Obj, c.hvalue(e))
	c.used += uint64(e.Size)
	return evicted
}

// Remove implements Policy.
func (c *refGDSF) Remove(obj trace.ObjectID) (Entry, bool) {
	e, ok := c.entries[obj]
	if !ok {
		return Entry{}, false
	}
	c.heap.remove(obj)
	delete(c.entries, obj)
	delete(c.freq, obj)
	c.used -= uint64(e.Size)
	return e, true
}

// Contains implements Policy.
func (c *refGDSF) Contains(obj trace.ObjectID) bool {
	_, ok := c.entries[obj]
	return ok
}

// Peek implements Policy.
func (c *refGDSF) Peek(obj trace.ObjectID) (Entry, bool) {
	e, ok := c.entries[obj]
	return e, ok
}

// HValue exposes the current H value of a cached object.
func (c *refGDSF) HValue(obj trace.ObjectID) (float64, bool) {
	return c.heap.key(obj)
}

// Frequency exposes the in-cache frequency counter.
func (c *refGDSF) Frequency(obj trace.ObjectID) float64 { return c.freq[obj] }

// Inflation exposes the current L value.
func (c *refGDSF) Inflation() float64 { return c.inflation }

// Len implements Policy.
func (c *refGDSF) Len() int { return len(c.entries) }

// Used implements Policy.
func (c *refGDSF) Used() uint64 { return c.used }

// Capacity implements Policy.
func (c *refGDSF) Capacity() uint64 { return c.capacity }

// Objects implements Policy.
func (c *refGDSF) Objects() []trace.ObjectID { return refSortedObjects(c.entries) }

var _ Policy = (*refGDSF)(nil)

// refCheckAddable, refEvictFor and refSortedObjects are the helpers the
// map-based policies shared.
func refCheckAddable(name string, e Entry, contains bool, capacity uint64) error {
	if contains {
		panic(fmt.Sprintf("cache: %s.Add(%d): object already cached", name, e.Obj))
	}
	if e.Size == 0 {
		return fmt.Errorf("cache: entry %d has zero size", e.Obj)
	}
	if uint64(e.Size) > capacity {
		return fmt.Errorf("cache: entry %d (size %d) exceeds capacity %d", e.Obj, e.Size, capacity)
	}
	return nil
}

func refEvictFor(need uint32, used *uint64, capacity uint64, pop func() Entry, out []Entry) []Entry {
	for *used+uint64(need) > capacity {
		v := pop()
		*used -= uint64(v.Size)
		out = append(out, v)
	}
	return out
}

func refSortedObjects[V any](m map[trace.ObjectID]V) []trace.ObjectID {
	out := make([]trace.ObjectID, 0, len(m))
	for obj := range m {
		out = append(out, obj)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
