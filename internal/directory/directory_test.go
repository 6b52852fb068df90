package directory

import (
	"math/rand"
	"testing"
	"testing/quick"

	"webcache/internal/trace"
)

func implementations() []Directory {
	return []Directory{NewExact(), NewBloom(1000, 0.01)}
}

func TestDirectoryAddRemove(t *testing.T) {
	for _, d := range implementations() {
		t.Run(d.Name(), func(t *testing.T) {
			d.Add(1)
			d.Add(2)
			if !d.MayContain(1) || !d.MayContain(2) {
				t.Fatal("added objects missing")
			}
			if d.Len() != 2 {
				t.Fatalf("len = %d, want 2", d.Len())
			}
			d.Remove(1)
			if d.Len() != 1 {
				t.Fatalf("len after remove = %d", d.Len())
			}
			if d.Name() == "exact" && d.MayContain(1) {
				t.Error("exact directory false positive after remove")
			}
			if !d.MayContain(2) {
				t.Error("false negative after unrelated remove")
			}
		})
	}
}

func TestDirectoryDuplicateAddIdempotent(t *testing.T) {
	for _, d := range implementations() {
		t.Run(d.Name(), func(t *testing.T) {
			d.Add(5)
			d.Add(5)
			if d.Len() != 1 {
				t.Fatalf("len = %d, want 1", d.Len())
			}
			d.Remove(5)
			if d.MayContain(5) && d.Name() == "exact" {
				t.Error("still present after remove")
			}
			if d.Len() != 0 {
				t.Fatalf("len = %d, want 0", d.Len())
			}
		})
	}
}

func TestDirectoryRemoveAbsentHarmless(t *testing.T) {
	for _, d := range implementations() {
		t.Run(d.Name(), func(t *testing.T) {
			d.Add(1)
			d.Remove(99) // never added: must not disturb 1
			if !d.MayContain(1) {
				t.Error("false negative after removing absent key")
			}
			if d.Len() != 1 {
				t.Errorf("len = %d, want 1", d.Len())
			}
		})
	}
}

func TestBloomMemorySmallerThanExact(t *testing.T) {
	const n = 10000
	e := NewExact()
	b := NewBloom(n, 0.01)
	for i := trace.ObjectID(0); i < n; i++ {
		e.Add(i)
		b.Add(i)
	}
	if b.MemoryBytes() >= e.MemoryBytes() {
		t.Errorf("bloom %d bytes not smaller than exact %d bytes", b.MemoryBytes(), e.MemoryBytes())
	}
}

func TestBloomFalsePositivesBounded(t *testing.T) {
	const n = 2000
	b := NewBloom(n, 0.01)
	for i := trace.ObjectID(0); i < n; i++ {
		b.Add(i)
	}
	fps := 0
	const probes = 50000
	for i := trace.ObjectID(n); i < n+probes; i++ {
		if b.MayContain(i) {
			fps++
		}
	}
	if rate := float64(fps) / probes; rate > 0.03 {
		t.Errorf("FP rate %.4f, want <= ~0.01", rate)
	}
}

// Property: no directory ever produces a false negative under random
// add/remove churn.
func TestPropNoFalseNegatives(t *testing.T) {
	for _, mk := range []func() Directory{
		func() Directory { return NewExact() },
		func() Directory { return NewBloom(500, 0.01) },
	} {
		f := func(seed int64, ops []uint8) bool {
			d := mk()
			rng := rand.New(rand.NewSource(seed))
			live := map[trace.ObjectID]bool{}
			for _, op := range ops {
				obj := trace.ObjectID(rng.Intn(200))
				if op%2 == 0 {
					d.Add(obj)
					live[obj] = true
				} else {
					d.Remove(obj)
					delete(live, obj)
				}
			}
			if d.Len() != len(live) {
				return false
			}
			for obj := range live {
				if !d.MayContain(obj) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("%s: %v", mk().Name(), err)
		}
	}
}
