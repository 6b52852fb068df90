package cache

import "webcache/internal/trace"

// LFU is a least-frequently-used cache.  The paper's NC, SC, NC-EC and
// SC-EC schemes "implement the LFU replacement policy" (§5.1).
//
// Two frequency-bookkeeping variants are provided:
//
//   - in-cache LFU (Perfect=false): an object's count restarts at 1
//     each time it (re-)enters the cache;
//   - perfect LFU (Perfect=true): counts persist across evictions, the
//     classic "perfect frequency knowledge" variant, which is the one
//     the paper's upper-bound framing implies.
//
// Eviction takes the minimum-frequency object, breaking ties by least
// recent touch.
type LFU struct {
	heapCache // key = frequency
	perfect   bool
	// history holds persistent counts for the perfect variant,
	// including objects not currently cached.
	history *History
}

// History is the perfect-LFU reference count of every object seen,
// cached or not.  Counts live in a slice behind one id -> index
// slotTable, so counting a known object is a single hashed lookup.
type History struct {
	index slotTable
	count []uint64
}

// NewHistory returns an empty history.
func NewHistory() *History { return &History{} }

// Count reports how often obj was referenced (0 if never).
func (h *History) Count(obj trace.ObjectID) uint64 {
	if i, ok := h.index.get(obj); ok {
		return h.count[i]
	}
	return 0
}

// bump counts one more reference to obj and returns the new count.
func (h *History) bump(obj trace.ObjectID) uint64 {
	i, ok := h.index.get(obj)
	if !ok {
		i = int32(len(h.count))
		h.index.put(obj, i)
		h.count = append(h.count, 0)
	}
	h.count[i]++
	return h.count[i]
}

// NewLFU returns an in-cache LFU cache.
func NewLFU(capacity uint64) *LFU { return &LFU{heapCache: newHeapCache(capacity)} }

// NewPerfectLFU returns a perfect-frequency LFU cache.
func NewPerfectLFU(capacity uint64) *LFU { return NewPerfectLFUShared(capacity, NewHistory()) }

// NewPerfectLFUShared returns a perfect-frequency LFU cache whose
// frequency history is the caller-provided one.  Passing the same
// history to several caches makes them agree on object frequencies —
// the EC schemes use this so the proxy tier and client tier of a
// unified cache rank objects consistently.
func NewPerfectLFUShared(capacity uint64, history *History) *LFU {
	return &LFU{heapCache: newHeapCache(capacity), perfect: true, history: history}
}

// Name implements Policy.
func (c *LFU) Name() string {
	if c.perfect {
		return "lfu-perfect"
	}
	return "lfu"
}

// RecordMiss lets the perfect variant count references to objects that
// are not cached (so their history is warm when they are next added).
// It is a no-op for in-cache LFU.
func (c *LFU) RecordMiss(obj trace.ObjectID) {
	if c.perfect {
		c.history.bump(obj)
	}
}

// Access implements Policy.
func (c *LFU) Access(obj trace.ObjectID) bool {
	n, ok := c.find(obj)
	if !ok {
		return false
	}
	f := c.key(n) + 1
	if c.perfect {
		f = float64(c.history.bump(obj))
	}
	c.update(n, f)
	return true
}

// Add implements Policy.
func (c *LFU) Add(e Entry) []Entry {
	if !c.admit(c.Name(), e) {
		return nil
	}
	c.makeRoom(e.Size)
	f := 1.0
	if c.perfect {
		f = float64(c.history.bump(e.Obj))
	}
	c.push(e, f)
	return c.scratch
}

// Frequency reports the policy's current frequency for obj (0 if
// unknown), exposed for tests and metrics.
func (c *LFU) Frequency(obj trace.ObjectID) uint64 {
	if c.perfect {
		return c.history.Count(obj)
	}
	if n, ok := c.find(obj); ok {
		return uint64(c.key(n))
	}
	return 0
}

var _ Policy = (*LFU)(nil)
