package store

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"webcache/internal/cache"
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
	s := mustNew(t, Config{CapacityBytes: 1000, shards: 4})
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

func TestStoreShardBudgetEdgeCases(t *testing.T) {
	// 4 shards x 250 bytes: an object that fits the total capacity but
	// not any single shard's budget is rejected (stored=false, no
	// error) — the documented sharding artifact.
	s := mustNew(t, Config{CapacityBytes: 1000, shards: 4})
	_, stored, err := s.Put(1, Object{Body: body(600), Cost: 1})
	if stored || err != nil {
		t.Fatalf("shard-oversized Put = (stored=%v, err=%v), want (false, nil)", stored, err)
	}
	// At exactly the shard budget it fits.
	if _, stored, _ := s.Put(2, Object{Body: body(250), Cost: 1}); !stored {
		t.Fatal("shard-budget-sized object rejected")
	}
	// Larger than the whole capacity is rejected too.
	if _, stored, _ := s.Put(3, Object{Body: body(1200), Cost: 1}); stored {
		t.Fatal("capacity-oversized object stored")
	}
}

func TestStoreCapacityPartitionExact(t *testing.T) {
	// An odd capacity must still partition exactly (remainder spread
	// one byte at a time), verified via the invariant checker.
	for _, shards := range []int{1, 2, 4, 8, 16} {
		chk := invariant.New(nil)
		s := mustNew(t, Config{CapacityBytes: 1003, shards: shards, Check: chk})
		s.CheckInvariants()
		if err := chk.Err(); err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		var sum uint64
		for _, snap := range s.Snapshot() {
			sum += snap.Capacity
		}
		if sum != 1003 {
			t.Fatalf("%d shards: budgets sum to %d, want 1003", shards, sum)
		}
	}
}

func TestStoreEvictionAccounting(t *testing.T) {
	chk := invariant.New(nil)
	s := mustNew(t, Config{CapacityBytes: 300, shards: 1, Check: chk})
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
	s := mustNew(t, Config{CapacityBytes: 200, shards: 1})
	if !s.FreeFor(1, 200) {
		t.Fatal("empty store reports no space for a capacity-sized object")
	}
	s.Put(1, Object{Body: body(150), Cost: 1})
	if s.FreeFor(2, 100) {
		t.Fatal("FreeFor ignores residency")
	}
	if !s.FreeFor(2, 50) {
		t.Fatal("FreeFor rejects a fitting object")
	}
}

// Headroom is capacity − used on one shard and the minimum over the
// shards on several, so that whatever it promises FreeFor keeps for
// every key.
func TestStoreHeadroom(t *testing.T) {
	one := mustNew(t, Config{CapacityBytes: 200, shards: 1})
	if got := one.Headroom(); got != 200 {
		t.Fatalf("empty one-shard headroom = %d, want 200", got)
	}
	one.Put(1, Object{Body: body(150), Cost: 1})
	if got := one.Headroom(); got != 50 {
		t.Fatalf("one-shard headroom = %d, want capacity - used = 50", got)
	}

	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		s := mustNew(t, Config{CapacityBytes: 4000, shards: 4})
		for i, puts := 0, rng.Intn(60); i < puts; i++ {
			s.Put(trace.ObjectID(rng.Uint64()), Object{Body: body(1 + rng.Intn(200)), Cost: 1})
		}
		least := ^uint64(0)
		for _, snap := range s.Snapshot() {
			if free := snap.Capacity - snap.Used; free < least {
				least = free
			}
		}
		h := s.Headroom()
		if h != least {
			t.Fatalf("round %d: headroom = %d, want the least shard's %d", round, h, least)
		}
		for i := 0; i < 200; i++ {
			k := trace.ObjectID(rng.Uint64())
			if !s.FreeFor(k, int(h)) {
				t.Fatalf("round %d: headroom %d but FreeFor(%d, %d) is false", round, h, k, h)
			}
		}
		// The converse is what total free bytes would get wrong: one byte
		// past the headroom no longer fits the fullest shard's keys.
		refused := false
		for i := 0; i < 200 && !refused; i++ {
			refused = !s.FreeFor(trace.ObjectID(rng.Uint64()), int(h)+1)
		}
		if !refused {
			t.Fatalf("round %d: headroom %d is not tight: %d bytes fit 200 random keys", round, h, h+1)
		}
	}
}

func TestStoreShardSizing(t *testing.T) {
	// A tiny capacity degenerates to one shard, preserving the
	// unsharded design's behaviour exactly.
	if s := mustNew(t, Config{CapacityBytes: 4096}); s.NumShards() != 1 {
		t.Fatalf("tiny store has %d shards, want 1", s.NumShards())
	}
	// A large one stripes to a power of two, every shard's budget at
	// least minShardBudget.
	for _, capacity := range []uint64{minShardBudget, 3 * minShardBudget, 1 << 30} {
		n := mustNew(t, Config{CapacityBytes: capacity}).NumShards()
		if n < 1 || n&(n-1) != 0 || (n > 1 && capacity/uint64(n) < minShardBudget) {
			t.Fatalf("capacity %d: %d shards", capacity, n)
		}
	}
	// Zero capacity is legal and stores nothing.
	z := mustNew(t, Config{})
	if _, stored, err := z.Put(1, Object{Body: body(1)}); stored || err != nil {
		t.Fatalf("zero-capacity Put = (stored=%v, err=%v), want (false, nil)", stored, err)
	}
}

// TestStoreShardsRunGreedyDual: every shard runs the paper's policy,
// with or without the invariant oracle wrapped around it.
func TestStoreShardsRunGreedyDual(t *testing.T) {
	for _, chk := range []*invariant.Checker{nil, invariant.New(nil)} {
		s := mustNew(t, Config{CapacityBytes: 1 << 20, shards: 4, Check: chk})
		for i := range s.shards {
			p := s.shards[i].policy
			if w, ok := p.(*invariant.CheckedPolicy); ok {
				p = w.Unwrap()
			}
			if _, ok := p.(*cache.GreedyDual); !ok {
				t.Fatalf("shard %d runs %T, want *cache.GreedyDual", i, p)
			}
		}
	}
}

// TestStoreMatchesBaselineSequentially diffs the sharded store
// (forced to one shard) against the single-mutex Baseline over a
// deterministic op mix: identical stores, hits, and evictions.
func TestStoreMatchesBaselineSequentially(t *testing.T) {
	s := mustNew(t, Config{CapacityBytes: 1000, shards: 1})
	b := NewBaseline(1000)
	for i := 0; i < 500; i++ {
		key := trace.ObjectID(i % 37)
		size := 1 + (i*13)%200
		_, okS := s.Get(key)
		_, okB := b.Get(key)
		if okS != okB {
			t.Fatalf("op %d: Get diverged (%v vs %v)", i, okS, okB)
		}
		if !okS {
			evS, stS, errS := s.Put(key, Object{Body: body(size), Cost: 1})
			evB, stB, errB := b.Put(key, Object{Body: body(size), Cost: 1})
			if stS != stB || (errS == nil) != (errB == nil) || len(evS) != len(evB) {
				t.Fatalf("op %d: Put diverged (%v/%v/%v vs %v/%v/%v)", i, len(evS), stS, errS, len(evB), stB, errB)
			}
		}
		if s.Len() != b.Len() || s.Used() != b.Used() {
			t.Fatalf("op %d: accounting diverged (%d/%d vs %d/%d)", i, s.Len(), s.Used(), b.Len(), b.Used())
		}
	}
}

func TestStorePublishMetrics(t *testing.T) {
	reg := obs.NewRegistry("store-test")
	s := mustNew(t, Config{CapacityBytes: 1000, shards: 2, Metrics: reg})
	s.Put(1, Object{Body: body(10), Cost: 1})
	s.PublishMetrics()
	vals := reg.Values()
	if vals["store.shards"] != 2 {
		t.Fatalf("store.shards = %v, want 2", vals["store.shards"])
	}
	if vals["store.used_bytes"] != 10 {
		t.Fatalf("store.used_bytes = %v, want 10", vals["store.used_bytes"])
	}
	if _, ok := vals["store.shard.0.used_bytes"]; !ok {
		t.Fatal("per-shard occupancy gauges missing")
	}
}
