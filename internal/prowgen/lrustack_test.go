package prowgen

import (
	"math/rand"
	"testing"
	"testing/quick"

	"webcache/internal/trace"
)

func TestLRUStackPushEvict(t *testing.T) {
	s := newLRUStack(3, 8)
	for i := 0; i < 3; i++ {
		if _, ok := s.pushTop(trace.ObjectID(i)); ok {
			t.Fatalf("push %d evicted early", i)
		}
	}
	ev, ok := s.pushTop(4)
	if !ok || ev != 0 {
		t.Fatalf("pushing 4th object: evicted=%v ok=%v, want 0 true", ev, ok)
	}
	if s.size() != 3 {
		t.Fatalf("size = %d, want 3", s.size())
	}
	if s.contains(0) {
		t.Error("evicted object still present")
	}
}

func TestLRUStackMoveToTopChangesEvictionOrder(t *testing.T) {
	s := newLRUStack(3, 8)
	s.pushTop(1)
	s.pushTop(2)
	s.pushTop(3)
	s.moveToTop(1) // order bottom->top now: 2 3 1
	ev, ok := s.pushTop(4)
	if !ok || ev != 2 {
		t.Fatalf("evicted %v ok=%v, want 2 true", ev, ok)
	}
}

func TestLRUStackPushDuplicateMovesToTop(t *testing.T) {
	s := newLRUStack(3, 8)
	s.pushTop(1)
	s.pushTop(2)
	if _, ok := s.pushTop(1); ok {
		t.Fatal("duplicate push evicted")
	}
	if s.size() != 2 {
		t.Fatalf("size = %d, want 2", s.size())
	}
	s.pushTop(3)
	ev, ok := s.pushTop(4)
	if !ok || ev != 2 {
		t.Fatalf("evicted %v, want 2 (1 was refreshed)", ev)
	}
}

func TestLRUStackRemove(t *testing.T) {
	s := newLRUStack(4, 8)
	for i := 1; i <= 4; i++ {
		s.pushTop(trace.ObjectID(i))
	}
	s.remove(2)
	if s.size() != 3 || s.contains(2) {
		t.Fatalf("remove failed: size=%d contains=%v", s.size(), s.contains(2))
	}
	// Remaining order bottom->top: 1 3 4.
	ev, _ := s.pushTop(5)
	if s.size() != 4 {
		t.Fatalf("size after refill = %d", s.size())
	}
	_ = ev
	ev2, ok := s.pushTop(6)
	if !ok || ev2 != 1 {
		t.Fatalf("evicted %v, want 1", ev2)
	}
}

func TestLRUStackSampleBiasedToTop(t *testing.T) {
	s := newLRUStack(100, 100)
	for i := 0; i < 100; i++ {
		s.pushTop(trace.ObjectID(i))
	}
	rng := rand.New(rand.NewSource(1))
	topHits, bottomHits := 0, 0
	for i := 0; i < 20000; i++ {
		o := s.sample(rng)
		if o >= 90 { // top decile (pushed last)
			topHits++
		}
		if o < 10 { // bottom decile
			bottomHits++
		}
	}
	if topHits <= 3*bottomHits {
		t.Errorf("sampling not top-biased: top=%d bottom=%d", topHits, bottomHits)
	}
}

func TestLRUStackCompaction(t *testing.T) {
	s := newLRUStack(8, 5000)
	// Push enough to force many evictions and trigger compaction.
	for i := 0; i < 5000; i++ {
		s.pushTop(trace.ObjectID(i))
	}
	if s.size() != 8 {
		t.Fatalf("size = %d, want 8", s.size())
	}
	// The 8 newest must be present and sampleable.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		o := s.sample(rng)
		if o < 4992 {
			t.Fatalf("sampled stale object %d", o)
		}
	}
	if len(s.items) > 64 {
		t.Errorf("backing array not compacted: len=%d", len(s.items))
	}
}

// Property: after an arbitrary operation sequence, the stack never
// exceeds capacity, pos agrees with items, and contains() matches
// membership.
func TestPropLRUStackInvariants(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := newLRUStack(10, len(ops)) // at most one new id per op
		live := map[trace.ObjectID]bool{}
		next := trace.ObjectID(0)
		for _, op := range ops {
			switch op % 3 {
			case 0: // push new
				ev, ok := s.pushTop(next)
				live[next] = true
				if ok {
					if !live[ev] {
						return false
					}
					delete(live, ev)
				}
				next++
			case 1: // move random live element to top
				if len(live) > 0 {
					o := anyKey(live, rng)
					s.moveToTop(o)
				}
			case 2: // remove random live element
				if len(live) > 0 {
					o := anyKey(live, rng)
					s.remove(o)
					delete(live, o)
				}
			}
			if s.size() != len(live) || s.size() > 10 {
				return false
			}
			for o := range live {
				if !s.contains(o) {
					return false
				}
			}
			// pos must index items correctly
			for o, i := range s.pos {
				if i >= 0 && s.items[i] != trace.ObjectID(o) {
					return false
				}
				if (i >= 0) != live[trace.ObjectID(o)] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func anyKey(m map[trace.ObjectID]bool, rng *rand.Rand) trace.ObjectID {
	// Deterministic selection independent of map iteration order.
	var min trace.ObjectID
	first := true
	n := rng.Intn(len(m))
	_ = n
	for k := range m {
		if first || k < min {
			min = k
			first = false
		}
	}
	return min
}
