package cache

import "webcache/internal/trace"

// Belady implements the clairvoyant MIN/OPT replacement (Belady 1966):
// evict the cached object whose next reference is farthest in the
// future.  For unit-size objects it minimizes misses over any request
// sequence, which makes it the natural yardstick for how much headroom
// the online policies (LFU, greedy-dual, GDSF) leave on the table —
// the BenchmarkBelady harness reports exactly that gap.
//
// Clairvoyance comes from an index of the full request sequence built
// up front; Access must be fed the same sequence positions in order.
type Belady struct {
	heapCache // key = -nextUse (max-heap over next use)
	// nextUse[obj] is a queue of future positions of obj.
	nextUse map[trace.ObjectID][]int
	clock   int
}

// never is the key for objects with no future reference: the most
// attractive victims.
const never = 1 << 40

// NewBelady builds the oracle for a request sequence.
func NewBelady(capacity uint64, sequence []trace.ObjectID) *Belady {
	next := make(map[trace.ObjectID][]int)
	for i, obj := range sequence {
		next[obj] = append(next[obj], i)
	}
	return &Belady{heapCache: newHeapCache(capacity), nextUse: next}
}

// Name implements Policy.
func (c *Belady) Name() string { return "belady" }

// futureOf pops positions of obj up to the current clock and returns
// the next future position (or never).
func (c *Belady) futureOf(obj trace.ObjectID) int {
	q := c.nextUse[obj]
	for len(q) > 0 && q[0] <= c.clock {
		q = q[1:]
	}
	c.nextUse[obj] = q
	if len(q) == 0 {
		return never
	}
	return q[0]
}

// Tick advances the oracle's position in the request sequence.  Call
// it once per request, before Access/Add for that request.
func (c *Belady) Tick() { c.clock++ }

// Access implements Policy.
func (c *Belady) Access(obj trace.ObjectID) bool {
	n, ok := c.find(obj)
	if ok {
		// Re-key by the next future use; farther = evicted sooner, so
		// the min-heap holds -nextUse.
		c.update(n, -float64(c.futureOf(obj)))
	}
	return ok
}

// Add implements Policy.  True MIN may *bypass*: when the incoming
// object's next use is farther than every cached object's, caching it
// would only displace something more useful, so it is not cached.
func (c *Belady) Add(e Entry) []Entry {
	if !c.admit(c.Name(), e) {
		return nil
	}
	newNext := c.futureOf(e.Obj)
	if c.used+uint64(e.Size) > c.capacity {
		if farthest, ok := c.minKey(); ok && float64(newNext) >= -farthest {
			return nil // bypass: everything cached is re-used sooner
		}
	}
	c.makeRoom(e.Size)
	c.push(e, -float64(newNext))
	return c.scratch
}

var _ Policy = (*Belady)(nil)

// ReplaySingleCache replays a unit-size request sequence against one
// cache under the given policy and returns the miss count.  For
// *Belady the oracle clock is advanced automatically.  This is the
// harness behind the policy-vs-optimal comparisons.
func ReplaySingleCache(p Policy, sequence []trace.ObjectID) (misses int) {
	oracle, isOracle := p.(*Belady)
	for i, obj := range sequence {
		if isOracle {
			oracle.clock = i
		}
		if p.Access(obj) {
			continue
		}
		misses++
		if lfu, ok := p.(*LFU); ok {
			lfu.RecordMiss(obj)
		}
		p.Add(Entry{Obj: obj, Size: 1, Cost: 1})
	}
	return misses
}
