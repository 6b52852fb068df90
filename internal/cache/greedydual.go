package cache

import "webcache/internal/trace"

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
type GreedyDual struct {
	heapCache // key = H value
	inflation float64
}

// NewGreedyDual returns a greedy-dual cache of the given capacity.
func NewGreedyDual(capacity uint64) *GreedyDual {
	return &GreedyDual{heapCache: newHeapCache(capacity)}
}

// Name implements Policy.
func (c *GreedyDual) Name() string { return "greedy-dual" }

func (c *GreedyDual) hvalue(e Entry) float64 {
	return c.inflation + e.Cost/float64(e.Size)
}

// Access implements Policy.  A hit restores the object's H value to
// L + Cost/Size with the current inflation.
func (c *GreedyDual) Access(obj trace.ObjectID) bool {
	n, ok := c.find(obj)
	if ok {
		c.update(n, c.hvalue(n.Entry))
	}
	return ok
}

// Add implements Policy.
func (c *GreedyDual) Add(e Entry) []Entry {
	if !c.admit(c.Name(), e) {
		return nil
	}
	// The inflation rises to the last victim's H value; every later
	// insertion and refresh builds on it.
	if h, evicted := c.makeRoom(e.Size); evicted {
		c.inflation = h
	}
	c.push(e, c.hvalue(e))
	return c.scratch
}

// HValue exposes the current H value of a cached object for tests and
// the Hier-GD pass-down logic.
func (c *GreedyDual) HValue(obj trace.ObjectID) (float64, bool) {
	if n, ok := c.find(obj); ok {
		return c.key(n), true
	}
	return 0, false
}

// Inflation exposes the current L value.
func (c *GreedyDual) Inflation() float64 { return c.inflation }

var _ Policy = (*GreedyDual)(nil)
