package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"webcache/internal/trace"
)

func seqOf(vals ...trace.ObjectID) []trace.ObjectID { return vals }

func TestBeladyClassicSequence(t *testing.T) {
	// The textbook paging example: capacity 3, demand-paging OPT takes
	// 9 faults.  A web cache may *bypass* (serving without caching),
	// which saves one more: our caching-optional MIN takes 8.
	seq := seqOf(7, 0, 1, 2, 0, 3, 0, 4, 2, 3, 0, 3, 2, 1, 2, 0, 1, 7, 0, 1)
	oracle := NewBelady(3, seq)
	misses := ReplaySingleCache(oracle, seq)
	if misses != 8 {
		t.Fatalf("OPT misses = %d, want 8 (bypass-enabled MIN)", misses)
	}
}

func TestBeladyBypass(t *testing.T) {
	// Capacity 1: A B A — caching B would evict A before its re-use;
	// MIN bypasses B and takes only B's compulsory miss.
	seq := seqOf(1, 2, 1)
	oracle := NewBelady(1, seq)
	misses := ReplaySingleCache(oracle, seq)
	if misses != 2 {
		t.Fatalf("misses = %d, want 2 (compulsory only)", misses)
	}
}

func TestBeladyNeverUsedEvictedFirst(t *testing.T) {
	seq := seqOf(1, 2, 3, 1, 2)
	oracle := NewBelady(2, seq)
	misses := ReplaySingleCache(oracle, seq)
	// 1,2 compulsory; 3 bypassed (never re-used while 1,2 are); 1,2 hit.
	if misses != 3 {
		t.Fatalf("misses = %d, want 3", misses)
	}
}

// Property: the clairvoyant policy never takes more misses than LRU,
// LFU, or greedy-dual on any random unit-size sequence (Belady's
// optimality theorem, checked empirically).
func TestPropBeladyOptimal(t *testing.T) {
	f := func(seed int64, n uint8, capRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := uint64(capRaw%8) + 2
		seq := make([]trace.ObjectID, int(n)+20)
		for i := range seq {
			seq[i] = trace.ObjectID(rng.Intn(20))
		}
		opt := ReplaySingleCache(NewBelady(capacity, seq), seq)
		for _, p := range []Policy{
			NewLRU(capacity),
			NewPerfectLFU(capacity),
			NewPerfectLFUShared(capacity, NewHistory(20)),
			NewGreedyDual(capacity),
			NewGDSF(capacity),
		} {
			if online := ReplaySingleCache(p, seq); online < opt {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBeladyPolicyInterface(t *testing.T) {
	seq := seqOf(1, 2, 3, 1)
	c := NewBelady(2, seq)
	c.Add(Entry{Obj: 1, Size: 1, Cost: 1})
	if !c.Contains(1) || c.Len() != 1 || c.Used() != 1 || c.Capacity() != 2 {
		t.Fatal("basic state wrong")
	}
	if _, ok := c.Peek(1); !ok {
		t.Error("peek failed")
	}
	if got := c.Objects(); len(got) != 1 || got[0] != 1 {
		t.Errorf("objects = %v", got)
	}
	if _, ok := c.Remove(1); !ok || c.Len() != 0 {
		t.Error("remove failed")
	}
	if c.Name() != "belady" {
		t.Error("name wrong")
	}
	c.Tick() // must not panic
}

// The gap between greedy-dual and the oracle on a realistic skewed
// workload stays moderate — the headroom measurement the bench
// harness reports.
func TestGreedyDualWithinReasonOfOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seq := make([]trace.ObjectID, 30000)
	for i := range seq {
		// Zipf-ish via multiplying uniforms.
		seq[i] = trace.ObjectID(float64(500) * rng.Float64() * rng.Float64())
	}
	const capacity = 50
	opt := ReplaySingleCache(NewBelady(capacity, seq), seq)
	gd := ReplaySingleCache(NewGreedyDual(capacity), seq)
	if gd < opt {
		t.Fatalf("online beat the oracle: %d < %d", gd, opt)
	}
	if float64(gd) > 2.5*float64(opt) {
		t.Errorf("greedy-dual misses %d vs optimal %d: gap ratio %.2f implausibly large",
			gd, opt, float64(gd)/float64(opt))
	}
}
