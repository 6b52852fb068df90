package cache

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"webcache/internal/trace"
)

// testHeap adds by-id spellings of update and popMin to the heap.
type testHeap struct{ keyedHeap }

func newTestHeap() *testHeap { return &testHeap{newKeyedHeap()} }

func (h *testHeap) rekey(obj trace.ObjectID, key float64) {
	n, _ := h.find(obj)
	h.update(n, key)
}

func (h *testHeap) popObj() trace.ObjectID {
	e, _ := h.popMin()
	return e.Obj
}

func TestKeyedHeapPushPopOrder(t *testing.T) {
	h := newTestHeap()
	keys := []float64{5, 1, 4, 2, 3}
	for i, k := range keys {
		h.push(Entry{Obj: trace.ObjectID(i), Size: 1}, k)
	}
	var got []float64
	for h.Len() > 0 {
		_, k := h.popMin()
		got = append(got, k)
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("pop order not sorted: %v", got)
	}
}

func TestKeyedHeapTieBreakFIFO(t *testing.T) {
	h := newTestHeap()
	for i := 0; i < 5; i++ {
		h.push(Entry{Obj: trace.ObjectID(i), Size: 1}, 1.0)
	}
	for i := 0; i < 5; i++ {
		e, _ := h.popMin()
		if obj := e.Obj; obj != trace.ObjectID(i) {
			t.Fatalf("tie-break not FIFO: pop %d gave %d", i, obj)
		}
	}
}

func TestKeyedHeapUpdate(t *testing.T) {
	h := newTestHeap()
	h.push(Entry{Obj: 1, Size: 1}, 10)
	h.push(Entry{Obj: 2, Size: 1}, 20)
	h.push(Entry{Obj: 3, Size: 1}, 30)
	h.rekey(3, 5) // decrease
	if obj := h.popObj(); obj != 3 {
		t.Fatalf("after decrease, min = %d, want 3", obj)
	}
	h.rekey(1, 100) // increase
	if obj := h.popObj(); obj != 2 {
		t.Fatalf("after increase, min = %d, want 2", obj)
	}
	if n, ok := h.find(1); !ok || h.order[n.idx].key != 100 {
		t.Fatalf("find(1) = %v %v", n, ok)
	}
}

func TestKeyedHeapRemove(t *testing.T) {
	h := newTestHeap()
	for i := 0; i < 10; i++ {
		h.push(Entry{Obj: trace.ObjectID(i), Size: 1}, float64(10-i))
	}
	if _, ok := h.Remove(9); !ok { // current min
		t.Fatal("remove(9) = false")
	}
	if _, ok := h.Remove(9); ok {
		t.Fatal("double remove succeeded")
	}
	e, k := h.popMin()
	if e.Obj != 8 || k != 2 {
		t.Fatalf("min after remove = (%d, %g), want (8, 2)", e.Obj, k)
	}
	if h.Contains(9) {
		t.Fatal("contains removed object")
	}
}

// A duplicate id is refused one level up (TestPolicyDuplicateAddPanics); the
// heap itself only guards its own emptiness.
func TestKeyedHeapPanics(t *testing.T) {
	h := newTestHeap()
	h.push(Entry{Obj: 1, Size: 1}, 1)
	h.popMin()
	assertPanics(t, "pop empty", func() { h.popMin() })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	f()
}

// Property: against a brute-force model, the heap returns the same
// min sequence under random pushes, updates, removes.
func TestPropKeyedHeapMatchesModel(t *testing.T) {
	type modelItem struct {
		key float64
		seq uint64
	}
	f := func(seed int64, opsRaw []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		h := newTestHeap()
		model := map[trace.ObjectID]modelItem{}
		var seq uint64
		next := trace.ObjectID(0)
		modelMin := func() (trace.ObjectID, bool) {
			var best trace.ObjectID
			found := false
			var bk modelItem
			for o, it := range model {
				if !found || it.key < bk.key || (it.key == bk.key && it.seq < bk.seq) {
					best, bk, found = o, it, true
				}
			}
			return best, found
		}
		for _, op := range opsRaw {
			switch op % 4 {
			case 0:
				k := float64(rng.Intn(50))
				h.push(Entry{Obj: next, Size: 1}, k)
				seq++
				model[next] = modelItem{k, seq}
				next++
			case 1:
				if len(model) == 0 {
					continue
				}
				o := smallestKeyOf(model)
				k := float64(rng.Intn(50))
				h.rekey(o, k)
				seq++
				model[o] = modelItem{k, seq}
			case 2:
				if len(model) == 0 {
					continue
				}
				o := smallestKeyOf(model)
				h.Remove(o)
				delete(model, o)
			case 3:
				if len(model) == 0 {
					if h.Len() != 0 {
						return false
					}
					continue
				}
				want, _ := modelMin()
				got := h.popObj()
				if got != want {
					return false
				}
				delete(model, got)
			}
			if h.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func smallestKeyOf[V any](m map[trace.ObjectID]V) trace.ObjectID {
	var min trace.ObjectID
	first := true
	for k := range m {
		if first || k < min {
			min = k
			first = false
		}
	}
	return min
}
