package cache

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"webcache/internal/trace"
)

// diffCase builds the policies under test and their map-based
// references (reference_test.go) for a script over n pool ids, which
// are 0..n-1 on the dense seeds.  Most cases are one policy against
// one reference; the shared-history LFU is two caches over one history
// on each side, and the script spreads its operations over both.
type diffCase struct {
	name string
	make func(capacity uint64, n int) (got, want []Policy)
}

func one(got, want Policy) ([]Policy, []Policy) { return []Policy{got}, []Policy{want} }

// lfuSingle and lfuShared build the perfect-LFU cases over a history
// whose universe is the fraction frac of the pool: 1 puts every dense
// id on the direct path, 0.5 splits the pool between the direct path
// and the hashed one, and 0 declares no universe.
func lfuSingle(frac float64) func(uint64, int) ([]Policy, []Policy) {
	return func(c uint64, n int) ([]Policy, []Policy) {
		return one(NewPerfectLFUShared(c, NewHistory(int(frac*float64(n)))), newRefPerfectLFU(c))
	}
}

func lfuShared(frac float64) func(uint64, int) ([]Policy, []Policy) {
	return func(c uint64, n int) ([]Policy, []Policy) {
		h, ref := NewHistory(int(frac*float64(n))), map[trace.ObjectID]uint64{}
		return []Policy{NewPerfectLFUShared(c, h), NewPerfectLFUShared(c/2+1, h)},
			[]Policy{newRefPerfectLFUShared(c, ref), newRefPerfectLFUShared(c/2+1, ref)}
	}
}

var diffCases = []diffCase{
	// "lfu" is perfect LFU as the simulator builds it, its universe
	// covering the pool.
	{"lfu", lfuSingle(1)},
	{"lfu-perfect", lfuSingle(0)},
	{"lfu-perfect-straddle", lfuSingle(0.5)},
	{"lfu-shared-history", lfuShared(0)},
	{"lfu-shared-history-dense", lfuShared(1)},
	{"lfu-shared-history-straddle", lfuShared(0.5)},
	{"greedy-dual", func(c uint64, _ int) ([]Policy, []Policy) {
		return one(NewGreedyDual(c), newRefGreedyDual(c))
	}},
	// Greedy-dual as the simulator's proxies build it, its universe
	// covering the dense pools.
	{"greedy-dual-dense", func(c uint64, n int) ([]Policy, []Policy) {
		return one(NewGreedyDualDense(c, n), newRefGreedyDual(c))
	}},
	// A cache large enough to hold more than manyClasses Cost/Size
	// classes at once (checked in runDiffScript).
	{"greedy-dual-many-classes", func(c uint64, _ int) ([]Policy, []Policy) {
		return one(NewGreedyDual(2*c+16), newRefGreedyDual(2*c+16))
	}},
	{"gdsf", func(c uint64, _ int) ([]Policy, []Policy) {
		return one(NewGDSF(c), newRefGDSF(c))
	}},
}

// policyState renders every policy-specific number a policy exposes
// about obj, bit-exactly, so two policies can be compared without
// knowing their concrete types.
func policyState(p Policy, obj trace.ObjectID) string {
	var b strings.Builder
	fmt.Fprintf(&b, "used=%d len=%d contains=%v", p.Used(), p.Len(), p.Contains(obj))
	if x, ok := p.(interface {
		HValue(trace.ObjectID) (float64, bool)
	}); ok {
		h, cached := x.HValue(obj)
		fmt.Fprintf(&b, " h=%#x/%v", math.Float64bits(h), cached)
	}
	if x, ok := p.(interface{ Inflation() float64 }); ok {
		fmt.Fprintf(&b, " L=%#x", math.Float64bits(x.Inflation()))
	}
	if x, ok := p.(interface{ Frequency(trace.ObjectID) uint64 }); ok {
		fmt.Fprintf(&b, " f=%d", x.Frequency(obj))
	}
	if x, ok := p.(interface{ Frequency(trace.ObjectID) float64 }); ok {
		fmt.Fprintf(&b, " f=%#x", math.Float64bits(x.Frequency(obj)))
	}
	return b.String()
}

// TestPoliciesMatchReference drives each slab-based policy and its
// map-based reference through the same random script and requires the
// same answer from every call: hits, victim sequences, removed and
// peeked entries, H values, frequencies, inflation, Used and Objects.
// Ids are dense (0..n) in one half of the runs and sparse 64-bit keys
// in the other, the way the live store's folded URL hashes are; sizes
// vary, and some Adds are zero-size or larger than the cache and must
// be refused by both.
func TestPoliciesMatchReference(t *testing.T) {
	for _, dc := range diffCases {
		for seed := int64(1); seed <= 12; seed++ {
			dc, seed := dc, seed
			t.Run(fmt.Sprintf("%s/seed%d", dc.name, seed), func(t *testing.T) {
				runDiffScript(t, dc, seed)
			})
		}
	}
}

func runDiffScript(t *testing.T, dc diffCase, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]trace.ObjectID, 40+rng.Intn(80))
	for i := range pool {
		pool[i] = trace.ObjectID(i)
		if seed%2 == 0 {
			pool[i] = trace.ObjectID(rng.Uint64())
		}
	}
	capacity := uint64(8 + rng.Intn(60))
	seq := make([]trace.ObjectID, 4000)
	for i := range seq {
		// Squaring skews towards the front of the pool: some hot ids.
		seq[i] = pool[int(float64(len(pool))*math.Pow(rng.Float64(), 2))]
	}
	gots, wants := dc.make(capacity, len(pool))
	peakClasses := 0

	for step, obj := range seq {
		k := rng.Intn(len(gots))
		got, want := gots[k], wants[k]
		what := ""
		switch op := rng.Intn(100); {
		case op < 45:
			g, w := got.Access(obj), want.Access(obj)
			what = fmt.Sprintf("Access = %v, reference %v", g, w)
			if g != w {
				t.Fatalf("step %d obj %d: %s", step, obj, what)
			}
			if g {
				break
			}
			fallthrough // a miss is followed by a fill, as in every engine
		case op < 75:
			if want.Contains(obj) {
				break
			}
			e := Entry{Obj: obj, Size: uint32(1 + rng.Intn(6)), Cost: float64(1 + rng.Intn(20))}
			switch rng.Intn(25) {
			case 0:
				e.Size = 0
			case 1:
				e.Size = uint32(want.Capacity()) + 1 + uint32(rng.Intn(3))
			}
			g, w := got.Add(e), want.Add(e)
			what = fmt.Sprintf("Add(%+v) evicted %v, reference %v", e, g, w)
			if !slices.Equal(g, w) {
				t.Fatalf("step %d: %s", step, what)
			}
		case op < 85:
			ge, gok := got.Remove(obj)
			we, wok := want.Remove(obj)
			what = fmt.Sprintf("Remove = %+v %v, reference %+v %v", ge, gok, we, wok)
			if ge != we || gok != wok {
				t.Fatalf("step %d obj %d: %s", step, obj, what)
			}
		case op < 92:
			ge, gok := got.Peek(obj)
			we, wok := want.Peek(obj)
			what = fmt.Sprintf("Peek = %+v %v, reference %+v %v", ge, gok, we, wok)
			if ge != we || gok != wok {
				t.Fatalf("step %d obj %d: %s", step, obj, what)
			}
		default:
			// LFU's side channel: a miss recorded in its history (for a
			// cached object too: a shared history is bumped by whichever
			// tier sees the reference).
			if x, ok := got.(interface{ RecordMiss(trace.ObjectID) }); ok {
				x.RecordMiss(obj)
				want.(interface{ RecordMiss(trace.ObjectID) }).RecordMiss(obj)
				what = "RecordMiss"
			}
		}
		if g, w := policyState(got, obj), policyState(want, obj); g != w {
			t.Fatalf("step %d obj %d after %s:\n got       %s\n reference %s", step, obj, what, g, w)
		}
		if gd := greedyDualOf(got); gd != nil {
			peakClasses = max(peakClasses, len(gd.heads))
		}
		if step%97 != 0 {
			continue
		}
		for i := range gots {
			if g, w := gots[i].Objects(), wants[i].Objects(); !slices.Equal(g, w) {
				t.Fatalf("step %d cache %d: Objects = %v, reference %v", step, i, g, w)
			}
			for _, o := range pool {
				if g, w := policyState(gots[i], o), policyState(wants[i], o); g != w {
					t.Fatalf("step %d cache %d obj %d:\n got       %s\n reference %s", step, i, o, g, w)
				}
			}
		}
	}
	if strings.HasSuffix(dc.name, "-many-classes") && peakClasses <= manyClasses {
		t.Fatalf("at most %d ratio classes were live at once, want more than %d", peakClasses, manyClasses)
	}
}
