package cache

import "webcache/internal/trace"

// GDSF implements GreedyDual-Size-Frequency (Cherkasova 1998), the
// frequency-weighted refinement of greedy-dual that became the Squid
// default:
//
//	H(o) = L + Frequency(o) * Cost(o) / Size(o)
//
// It is not part of the paper's design but is the natural upgrade path
// for Hier-GD's proxy and client caches, so the library offers it as
// an extension (Config.GDSF in the simulator) together with an
// ablation comparison in the benchmark harness.
type GDSF struct {
	heapCache // key = H value; node.freq = in-cache frequency
	inflation float64
}

// NewGDSF returns a GDSF cache of the given capacity.
func NewGDSF(capacity uint64) *GDSF {
	return &GDSF{heapCache: newHeapCache(capacity)}
}

// Name implements Policy.
func (c *GDSF) Name() string { return "gdsf" }

func (c *GDSF) hvalue(e Entry, freq float64) float64 {
	return c.inflation + freq*e.Cost/float64(e.Size)
}

// Access implements Policy: a hit bumps the in-cache frequency and
// refreshes H with the current inflation.
func (c *GDSF) Access(obj trace.ObjectID) bool {
	n, ok := c.find(obj)
	if ok {
		n.freq++
		c.update(n, c.hvalue(n.Entry, n.freq))
	}
	return ok
}

// Add implements Policy.
func (c *GDSF) Add(e Entry) []Entry {
	if !c.admit(c.Name(), e) {
		return nil
	}
	if h, evicted := c.makeRoom(e.Size); evicted {
		c.inflation = h
	}
	c.push(e, c.hvalue(e, 1)).freq = 1
	return c.scratch
}

// Frequency exposes the in-cache frequency counter (0 if not cached).
func (c *GDSF) Frequency(obj trace.ObjectID) float64 {
	if n, ok := c.find(obj); ok {
		return n.freq
	}
	return 0
}

// Inflation exposes the current L value.
func (c *GDSF) Inflation() float64 { return c.inflation }

var _ Policy = (*GDSF)(nil)
