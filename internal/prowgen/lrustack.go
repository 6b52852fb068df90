package prowgen

import (
	"math"
	"math/rand"

	"webcache/internal/trace"
)

// lruStack is the finite LRU stack of ProWGen's temporal-locality
// model.  Referenced objects move to the top; new objects push in at
// the top; when the stack exceeds its capacity the bottom (least
// recently referenced) object falls out.
//
// Re-references sample a stack *position* with probability proportional
// to 1/(position+1) from the top, so recently referenced objects are
// re-referenced soonest — that is the temporal locality.  The slice is
// kept dense with the top at the end, so moveToTop and remove shift every
// item above the object and rewrite its pos entry: an object p positions
// from the top costs p moves.  Sampled positions cluster near the top,
// but not tightly: the mean position is about k/ln(k+1) over a k-item
// stack, some 140 moves per re-reference at the paper-default 1 000.
type lruStack struct {
	capacity int
	items    []trace.ObjectID // dense in [head, len(items)); top at the end
	head     int
	// pos[obj] is obj's absolute index into items, -1 when it is not in
	// the stack.  The generator knows its object universe, so this is a
	// dense table: moveToTop rewrites one entry per shifted item.
	pos []int32
}

// newLRUStack returns an empty stack for object ids below numObjects.
func newLRUStack(capacity, numObjects int) *lruStack {
	s := &lruStack{capacity: capacity, pos: make([]int32, numObjects)}
	for i := range s.pos {
		s.pos[i] = -1
	}
	return s
}

func (s *lruStack) size() int { return len(s.items) - s.head }

func (s *lruStack) contains(obj trace.ObjectID) bool { return s.pos[obj] >= 0 }

// pushTop pushes obj onto the top of the stack.  If that overflows the
// capacity, the bottom object is evicted and returned with ok=true.
func (s *lruStack) pushTop(obj trace.ObjectID) (evicted trace.ObjectID, ok bool) {
	if s.contains(obj) {
		s.moveToTop(obj)
		return 0, false
	}
	s.items = append(s.items, obj)
	s.pos[obj] = int32(len(s.items) - 1)
	if s.size() > s.capacity {
		evicted = s.items[s.head]
		s.pos[evicted] = -1
		s.head++
		ok = true
		s.maybeCompact()
	}
	return evicted, ok
}

// moveToTop moves an in-stack object to the top position.
func (s *lruStack) moveToTop(obj trace.ObjectID) {
	i := int(s.pos[obj])
	if i < 0 {
		panic("prowgen: moveToTop of object not in stack")
	}
	last := len(s.items) - 1
	if i == last {
		return
	}
	copy(s.items[i:], s.items[i+1:])
	s.items[last] = obj
	for j := i; j <= last; j++ {
		s.pos[s.items[j]] = int32(j)
	}
}

// remove deletes an in-stack object (its reference quota is exhausted).
func (s *lruStack) remove(obj trace.ObjectID) {
	i := int(s.pos[obj])
	if i < 0 {
		panic("prowgen: remove of object not in stack")
	}
	s.pos[obj] = -1
	last := len(s.items) - 1
	copy(s.items[i:], s.items[i+1:])
	s.items = s.items[:last]
	for j := i; j < last; j++ {
		s.pos[s.items[j]] = int32(j)
	}
}

// sample draws an object at a harmonic-weighted position from the top:
// P(position p) ~ 1/(p+1), p=0 at the top.  The inverse-CDF of the
// harmonic distribution over k positions is p = floor(exp(u*ln(k+1)))-1.
func (s *lruStack) sample(rng *rand.Rand) trace.ObjectID {
	k := s.size()
	if k == 0 {
		panic("prowgen: sample from empty stack")
	}
	u := rng.Float64()
	p := int(math.Exp(u*math.Log(float64(k+1)))) - 1
	if p < 0 {
		p = 0
	}
	if p >= k {
		p = k - 1
	}
	return s.items[len(s.items)-1-p]
}

// maybeCompact reclaims the dead prefix left behind by bottom
// evictions once it dominates the backing array.
func (s *lruStack) maybeCompact() {
	if s.head < 2*s.capacity || s.head < len(s.items)/2 {
		return
	}
	n := copy(s.items, s.items[s.head:])
	s.items = s.items[:n]
	s.head = 0
	for j, obj := range s.items {
		s.pos[obj] = int32(j)
	}
}
