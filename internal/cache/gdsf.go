package cache

import "webcache/internal/trace"

// GDSF implements GreedyDual-Size-Frequency (Cherkasova 1998), the
// frequency-weighted refinement of greedy-dual that became the Squid
// default:
//
//	H(o) = L + Frequency(o) * Cost(o) / Size(o)
//
// It is greedy-dual whose ratio is Frequency*Cost/Size, so it runs on
// GreedyDual's ratio classes: a hit bumps the object's in-cache
// frequency and moves it to the tail of its new ratio's class.  The
// FIFO order within a class holds as for greedy-dual, since every H
// there is still L + the class's ratio.
//
// It is not part of the paper's design: the daemons and the simulator
// run greedy-dual.  The library keeps it as the frequency-aware
// variant the policy tests and the benchmark's per-policy probe
// compare against.
type GDSF struct {
	GreedyDual
	freq []float64 // in-cache frequency by node slot
}

// NewGDSF returns a GDSF cache of the given capacity.
func NewGDSF(capacity uint64) *GDSF {
	return &GDSF{GreedyDual: *NewGreedyDual(capacity)}
}

// Name implements Policy.
func (c *GDSF) Name() string { return "gdsf" }

// Access implements Policy: a hit bumps the in-cache frequency and
// refreshes H with the current inflation.
func (c *GDSF) Access(obj trace.ObjectID) bool {
	s, ok := c.slot.get(obj)
	if ok {
		c.freq[s]++
		n := &c.nodes[s]
		c.move(s, c.freq[s]*n.Cost/float64(n.Size))
	}
	return ok
}

// Add implements Policy.  A placement's frequency is 1, so its ratio
// is greedy-dual's.
func (c *GDSF) Add(e Entry) []Entry {
	if !addable(c.Name(), e, c.Contains(e.Obj), c.capacity) {
		return nil
	}
	s := c.add(e, e.Cost/float64(e.Size))
	if int(s) == len(c.freq) {
		c.freq = append(c.freq, 1)
	} else {
		c.freq[s] = 1
	}
	return c.scratch
}

// Frequency exposes the in-cache frequency counter (0 if not cached).
func (c *GDSF) Frequency(obj trace.ObjectID) float64 {
	if s, ok := c.slot.get(obj); ok {
		return c.freq[s]
	}
	return 0
}

var _ Policy = (*GDSF)(nil)
