package store

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"webcache/internal/invariant"
	"webcache/internal/obs"
	"webcache/internal/trace"
)

func body(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}

func mustNew(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestStoreBasicPutGet(t *testing.T) {
	s := mustNew(t, Config{CapacityBytes: 1000})
	if _, ok := s.Get(1); ok {
		t.Fatal("empty store reports a hit")
	}
	evicted, stored, err := s.Put(1, Object{HexKey: "01", Body: body(100), Cost: 1})
	if err != nil || !stored || len(evicted) != 0 {
		t.Fatalf("Put = (%v, %v, %v)", evicted, stored, err)
	}
	obj, ok := s.Get(1)
	if !ok || len(obj.Body) != 100 || obj.HexKey != "01" {
		t.Fatalf("Get = (%+v, %v)", obj, ok)
	}
	if s.Len() != 1 || s.Used() != 100 {
		t.Fatalf("Len/Used = %d/%d, want 1/100", s.Len(), s.Used())
	}
	// Re-putting a present key refreshes instead of duplicating.
	if _, stored, err := s.Put(1, Object{Body: body(100)}); !stored || err != nil {
		t.Fatalf("refresh Put failed")
	}
	if s.Len() != 1 || s.Used() != 100 {
		t.Fatalf("refresh changed accounting: Len/Used = %d/%d", s.Len(), s.Used())
	}
}

func TestStoreEmptyBodyRejectedExplicitly(t *testing.T) {
	s := mustNew(t, Config{CapacityBytes: 1000})
	_, stored, err := s.Put(7, Object{HexKey: "07"})
	if !errors.Is(err, ErrEmptyObject) || stored {
		t.Fatalf("Put(empty) = (stored=%v, err=%v), want ErrEmptyObject", stored, err)
	}
	if s.Len() != 0 || s.Used() != 0 {
		t.Fatal("empty body leaked into accounting")
	}
	// The real body length is preserved in accounting — no size
	// coercion anywhere: a 1-byte object accounts exactly 1 byte.
	s.Put(8, Object{Body: body(1), Cost: 1})
	if s.Used() != 1 {
		t.Fatalf("Used = %d after 1-byte put, want 1", s.Used())
	}
}

// TestStoreBudgetEdgeCases: a body is stored exactly when it fits the
// whole capacity, however large a share of it the body takes.
func TestStoreBudgetEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		capacity   uint64
		size       int
		wantStored bool
	}{
		{1000, 600, true},
		{1000, 1000, true},
		{1000, 1200, false},
		{256 << 10, 200 << 10, true},
		{0, 1, false}, // zero capacity is legal and stores nothing
	} {
		s := mustNew(t, Config{CapacityBytes: tc.capacity})
		evicted, stored, err := s.Put(1, Object{Body: body(tc.size), Cost: 1})
		if stored != tc.wantStored || err != nil || len(evicted) != 0 {
			t.Fatalf("Put(%d B) into %d B = (%d evicted, stored=%v, err=%v), want stored=%v",
				tc.size, tc.capacity, len(evicted), stored, err, tc.wantStored)
		}
		if _, hit := s.Get(1); hit != tc.wantStored {
			t.Fatalf("Get after Put(%d B) into %d B = %v", tc.size, tc.capacity, hit)
		}
	}
}

func TestStoreEvictionAccounting(t *testing.T) {
	chk := invariant.New(nil)
	s := mustNew(t, Config{CapacityBytes: 300, Check: chk})
	for i := 0; i < 10; i++ {
		if _, stored, err := s.Put(trace.ObjectID(i), Object{HexKey: fmt.Sprintf("%02d", i), Body: body(100), Cost: 1}); !stored || err != nil {
			t.Fatalf("Put %d failed (stored=%v, err=%v)", i, stored, err)
		}
	}
	if s.Len() != 3 || s.Used() != 300 {
		t.Fatalf("Len/Used = %d/%d, want 3/300", s.Len(), s.Used())
	}
	s.CheckInvariants()
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreFreeFor(t *testing.T) {
	s := mustNew(t, Config{CapacityBytes: 200})
	if s.Headroom() < 200 {
		t.Fatal("empty store reports no space for a capacity-sized object")
	}
	s.Put(1, Object{Body: body(150), Cost: 1})
	if s.Headroom() >= 100 {
		t.Fatal("Headroom ignores residency")
	}
	if s.Headroom() < 50 {
		t.Fatal("Headroom rejects a fitting object")
	}
}

// Headroom is exactly capacity − used after any fill, the same figure
// whatever key is put next.
func TestStoreHeadroom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		// Two stores given the same fill: one takes a body of exactly the
		// headroom, the other one byte more.
		fits, over := mustNew(t, Config{CapacityBytes: 4000}), mustNew(t, Config{CapacityBytes: 4000})
		for i, puts := 0, rng.Intn(60); i < puts; i++ {
			k, b := trace.ObjectID(rng.Uint64()), body(1+rng.Intn(200))
			fits.Put(k, Object{Body: b, Cost: 1})
			over.Put(k, Object{Body: b, Cost: 1})
		}
		h := fits.Headroom()
		if fits.Capacity() != 4000 || h != fits.Capacity()-fits.Used() || over.Headroom() != h {
			t.Fatalf("round %d: headroom = %d, want capacity %d - used %d", round, h, fits.Capacity(), fits.Used())
		}
		if h == 0 || h == fits.Capacity() {
			continue // no body fits exactly, or none is one byte too many
		}
		k := trace.ObjectID(rng.Uint64()) // a key not yet put
		if ev, stored, _ := fits.Put(k, Object{Body: body(int(h)), Cost: 1}); !stored || len(ev) != 0 {
			t.Fatalf("round %d: headroom %d, but a body that size under %d stored %v evicting %d", round, h, k, stored, len(ev))
		}
		if ev, _, _ := over.Put(k, Object{Body: body(int(h) + 1), Cost: 1}); len(ev) == 0 {
			t.Fatalf("round %d: headroom %d, but %d bytes under %d evicted nothing", round, h, h+1, k)
		}
	}
}

// TestStoreMatchesBaselineSequentially diffs the store against the
// single-mutex Baseline over a deterministic op mix, with and without
// the invariant oracle wrapped around its policy: identical hits,
// stores and evictions, victim by victim.  The 1 MiB case holds bodies
// up to 8 KiB over a key set larger than the capacity, so the store's
// one greedy-dual must evict exactly as the baseline's does.
func TestStoreMatchesBaselineSequentially(t *testing.T) {
	for _, tc := range []struct {
		capacity     uint64
		keys, maxLen int
		ops          int
	}{
		{1000, 37, 200, 500},
		{1003, 41, 200, 500},
		{1 << 20, 400, 8 << 10, 4000},
	} {
		for _, chk := range []*invariant.Checker{nil, invariant.New(nil)} {
			s := mustNew(t, Config{CapacityBytes: tc.capacity, Check: chk})
			b := NewBaseline(tc.capacity)
			for i := 0; i < tc.ops; i++ {
				key := trace.ObjectID((i * 7919) % tc.keys)
				_, okS := s.Get(key)
				_, okB := b.Get(key)
				if okS != okB {
					t.Fatalf("capacity %d op %d: Get diverged (%v vs %v)", tc.capacity, i, okS, okB)
				}
				if !okS {
					obj := Object{HexKey: fmt.Sprintf("%x", key), Body: body(1 + (i*13)%tc.maxLen), Cost: float64(1 + i%3)}
					evS, stS, errS := s.Put(key, obj)
					evB, stB, errB := b.Put(key, obj)
					if stS != stB || (errS == nil) != (errB == nil) || !slices.Equal(hexKeys(evS), hexKeys(evB)) {
						t.Fatalf("capacity %d op %d: Put diverged (%v/%v/%v vs %v/%v/%v)",
							tc.capacity, i, hexKeys(evS), stS, errS, hexKeys(evB), stB, errB)
					}
				}
				if s.Len() != b.Len() || s.Used() != b.Used() {
					t.Fatalf("capacity %d op %d: accounting diverged (%d/%d vs %d/%d)",
						tc.capacity, i, s.Len(), s.Used(), b.Len(), b.Used())
				}
			}
			s.CheckInvariants()
			if err := chk.Err(); err != nil {
				t.Fatalf("capacity %d: %v", tc.capacity, err)
			}
		}
	}
}

func hexKeys(objs []Object) []string {
	keys := make([]string, len(objs))
	for i, o := range objs {
		keys[i] = o.HexKey
	}
	return keys
}

// TestStoreCheckCatchesBodyDrift: a body dropped behind the policy's
// back is what the reconciliation exists to catch.
func TestStoreCheckCatchesBodyDrift(t *testing.T) {
	chk := invariant.New(nil)
	s := mustNew(t, Config{CapacityBytes: 1000, Check: chk})
	s.Put(1, Object{Body: body(10), Cost: 1})
	s.Put(2, Object{Body: body(20), Cost: 1})
	s.CheckInvariants()
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}
	delete(s.bodies, 2)
	s.CheckInvariants()
	if chk.ViolationCount() != 1 {
		t.Fatalf("dropped body raised %d violations, want 1", chk.ViolationCount())
	}
}

func TestStorePublishMetrics(t *testing.T) {
	reg := obs.NewRegistry("store-test")
	s := mustNew(t, Config{CapacityBytes: 1000, Metrics: reg})
	s.Put(1, Object{Body: body(10), Cost: 1})
	s.PublishMetrics()
	vals := reg.Values()
	if vals["store.capacity_bytes"] != 1000 || vals["store.used_bytes"] != 10 || vals["store.objects"] != 1 {
		t.Fatalf("store gauges = %v/%v/%v, want 1000/10/1",
			vals["store.capacity_bytes"], vals["store.used_bytes"], vals["store.objects"])
	}
}
