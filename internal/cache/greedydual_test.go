package cache

import (
	"math"
	"slices"
	"testing"

	"webcache/internal/trace"
)

// FuzzGreedyDual drives the ratio-class GreedyDual, hashed and over a
// universe of 32 (so ids 0..63 straddle the direct path and the hashed
// one), and GDSF, which runs on the same classes, each beside its own
// heap-ordered reference (refGreedyDual, refGDSF), through fuzz-chosen
// scripts.  Each operation is two bytes: the first's top two bits pick
// Access, Add, Remove or a refused Add and its low six the id; the
// second gives the Add's size (top two bits, 1..4) and its Cost/Size
// ratio, one of k quarter steps, so greedy-dual holds exactly k ratio
// classes: k = 1, up to manyClasses, or more.  GDSF holds more, as a
// hit scales its object's ratio by the new frequency.  A refused Add is
// zero-size or larger than the cache.  Every answer must match the
// reference: hits, victim sequences and removed entries; after each
// step the touched id's H value bits, the inflation bits, Len and Used,
// that the ratio index holds exactly the live classes, and that the
// heads are a min-heap by each head's (H, seq) whose every class knows
// its place in it; and every thirty-second step and at the end,
// Objects.
func FuzzGreedyDual(f *testing.F) {
	script := func(k, n int) []byte {
		var s []byte
		for i := 0; i < n; i++ {
			id := byte(i*7+i/13) & 63
			op := []byte{0x40, 0x40, 0x00, 0x40, 0x80, 0x00, 0x40, 0xc0}[i%8]
			s = append(s, op|id, byte(i*37+i/k))
		}
		return s
	}
	f.Add(uint8(0), uint8(12), script(1, 64))    // one class
	f.Add(uint8(3), uint8(20), script(4, 64))    // four
	f.Add(uint8(7), uint8(30), script(8, 64))    // eight, manyClasses
	f.Add(uint8(19), uint8(47), script(20, 100)) // twenty
	f.Add(uint8(63), uint8(47), script(64, 100)) // sixty-four
	f.Add(uint8(8), uint8(2), []byte{0x41, 9})   // nine classes in a tiny cache
	// Object 10 hit hundreds of times among adds that evict its
	// neighbours: each GDSF hit makes its new ratio's class and retires
	// the one it leaves.
	var hot []byte
	for i := 0; i < 6; i++ {
		hot = append(hot, 0x40|byte(10+i), byte(i))
	}
	for i := 0; i < 300; i++ {
		hot = append(hot, 0x00|10, 0)
		if i%25 == 0 {
			hot = append(hot, 0x40|byte(20+i/25), byte(i))
		}
	}
	f.Add(uint8(3), uint8(5), append(hot, 0x80|10, 0))
	f.Fuzz(func(t *testing.T, classes, capacity uint8, script []byte) {
		k := 1 + int(classes)%64
		c := 1 + uint64(capacity)%48
		pairs := [][2]gdPolicy{
			{NewGreedyDual(c), newRefGreedyDual(c)},
			{NewGreedyDualDense(c, 32), newRefGreedyDual(c)},
			{NewGDSF(c), newRefGDSF(c)},
		}
		for step := 0; step+1 < len(script); step += 2 {
			op, arg := script[step], script[step+1]
			obj := trace.ObjectID(op & 63)
			size := 1 + uint32(arg>>6)
			e := Entry{Obj: obj, Size: size, Cost: float64(1+int(arg&63)%k) / 4 * float64(size)}
			if op>>6 == 3 {
				e.Size = 0
				if arg&1 == 1 {
					e.Size = uint32(c) + 1
				}
			}
			for _, pair := range pairs {
				got, want := pair[0], pair[1]
				switch op >> 6 {
				case 0:
					if g, w := got.Access(obj), want.Access(obj); g != w {
						t.Fatalf("step %d: %T Access(%d) = %v, reference %v", step, got, obj, g, w)
					}
				case 1, 3:
					if want.Contains(obj) {
						break
					}
					if g, w := got.Add(e), want.Add(e); !slices.Equal(g, w) {
						t.Fatalf("step %d: %T Add(%+v) evicted %v, reference %v", step, got, e, g, w)
					}
				case 2:
					ge, gok := got.Remove(obj)
					we, wok := want.Remove(obj)
					if ge != we || gok != wok {
						t.Fatalf("step %d: %T Remove(%d) = %+v %v, reference %+v %v", step, got, obj, ge, gok, we, wok)
					}
				}
				if g, w := gdStateOf(got, obj), gdStateOf(want, obj); g != w {
					t.Fatalf("step %d obj %d: %T state %+v, reference %+v", step, obj, got, g, w)
				}
				gd := greedyDualOf(got)
				if gd.classOf.len() != len(gd.heads) {
					t.Fatalf("step %d: %d live classes, %d indexed by ratio", step, len(gd.heads), gd.classOf.len())
				}
				for i, k := range gd.heads {
					if int(gd.classes[k].pos) != i {
						t.Fatalf("step %d: class %d at heads[%d] says it is at %d", step, k, i, gd.classes[k].pos)
					}
					if i > 0 && gd.headBefore(i, (i-1)/2) {
						t.Fatalf("step %d: heads[%d] comes before its parent heads[%d]", step, i, (i-1)/2)
					}
				}
				if step%64 != 0 && step+3 < len(script) {
					continue
				}
				if g, w := got.Objects(), want.Objects(); !slices.Equal(g, w) {
					t.Fatalf("step %d: %T Objects = %v, reference %v", step, got, g, w)
				}
			}
		}
	})
}

// manyClasses is the live ratio-class count the many-class rows
// (TestPolicyAllocsPerRun, diffCases) must exceed: twice netmodel's four
// fetch costs, so the heap over class heads is deeper than the
// simulator's own runs make it.
const manyClasses = 8

// greedyDualOf returns the ratio classes p runs on: p itself, or the
// greedy-dual a GDSF embeds.  It is nil for any other policy.
func greedyDualOf(p Policy) *GreedyDual {
	switch c := p.(type) {
	case *GreedyDual:
		return c
	case *GDSF:
		return &c.GreedyDual
	}
	return nil
}

// gdPolicy is a Policy with greedy-dual's side channels.
type gdPolicy interface {
	Policy
	HValue(trace.ObjectID) (float64, bool)
	Inflation() float64
}

// gdState is what a greedy-dual exposes about one id, floats as bits.
type gdState struct {
	used      uint64
	len       int
	h, l      uint64
	contained bool
}

func gdStateOf(p gdPolicy, obj trace.ObjectID) gdState {
	h, ok := p.HValue(obj)
	return gdState{p.Used(), p.Len(), math.Float64bits(h), math.Float64bits(p.Inflation()), ok}
}
