// Package store is the live data plane's concurrent object store: a
// sharded, lock-striped cache of HTTP bodies that runs greedy-dual
// (internal/cache), the paper's policy at every tier, in each shard and
// coalesces concurrent misses on the same key into one loader call.
//
// The paper's closing claim is that Hier-GD "is technically
// practical" at proxy scale (§5.3); a proxy whose every request
// serializes on one mutex is not.  The store splits the key space
// over N shards by key hash, each shard owning an independent
// greedy-dual instance and byte budget (the budgets partition the
// configured capacity exactly), so requests for different shards
// proceed in parallel and cross-shard totals are answered from atomics
// without taking any lock.  GetOrLoad adds singleflight miss coalescing: a
// thundering herd of K concurrent getters of an absent key costs one
// origin fetch, not K.
//
// The simulator keeps its deterministic single-threaded function-call
// path (internal/sim) — this package serves only the live HTTP system
// (internal/httpcache) and its benchmarks.  Observability follows the
// repo-wide contract: a nil *obs.Registry and nil *invariant.Checker
// disable metrics and shadow checking at zero cost.
package store

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"webcache/internal/cache"
	"webcache/internal/invariant"
	"webcache/internal/obs"
	"webcache/internal/trace"
)

// ErrEmptyObject rejects zero-length bodies: a zero-size entry would
// make the greedy-dual H value (cost/size) infinite and pin the
// object forever, so the policies refuse it (cache.addable) and
// the store surfaces the case explicitly instead of silently coercing
// the size to 1 byte the way the old bounded store did.  Callers
// serve the empty body without caching it.
var ErrEmptyObject = errors.New("store: zero-length body is not cacheable")

// Object is one cached HTTP body with the metadata replacement
// decisions and the wire protocol need.
type Object struct {
	// HexKey is the full 128-bit objectId in hex — kept alongside the
	// folded 64-bit policy key for exactness on the wire.
	HexKey string
	Body   []byte
	// Cost is the greedy-dual fetch cost that was paid for the body.
	Cost float64
}

// Interface is the store surface the data plane programs against,
// implemented by the sharded Store and the memory-over-disk Tiered.
type Interface interface {
	Get(key trace.ObjectID) (Object, bool)
	Put(key trace.ObjectID, obj Object) (evicted []Object, stored bool, err error)
	GetOrLoad(key trace.ObjectID, loader Loader) (LoadView, error)
	FreeFor(key trace.ObjectID, size int) bool
	Len() int
	Used() uint64
	Capacity() uint64
}

// Config sizes a Store.
type Config struct {
	// CapacityBytes is the total byte budget, partitioned exactly over
	// the shards.  The shard count is a power of two near GOMAXPROCS,
	// backed off until every shard's budget clears minShardBudget, so
	// tiny caches degenerate to one shard (and behave exactly like the
	// unsharded design).
	CapacityBytes uint64
	// Metrics, when non-nil, receives the store.* namespace (see
	// METRICS.md): the shard-lock wait timer and miss-coalescing
	// counters live, per-shard occupancy on PublishMetrics.
	Metrics *obs.Registry
	// Check, when non-nil, wraps every shard's policy in
	// invariant.CheckedPolicy and enables the cross-shard partition
	// check (CheckInvariants, also run every checkEvery mutations).
	Check *invariant.Checker
	// Label distinguishes multiple stores in violation details and
	// defaults to "store".
	Label string

	// shards, when non-zero, pins the stripe count (a power of two) so
	// this package's tests do not depend on the host's core count.
	shards int
}

// minShardBudget is the smallest per-shard byte budget sharding will
// accept; below it, fewer shards are used.  64 KiB keeps typical web
// objects well under the per-shard capacity so sharding never rejects
// an object the unsharded store would have taken, while any
// realistically-sized proxy cache still gets full striping.
const minShardBudget = 64 << 10

// checkEvery is the mutation period of the cross-shard reconciliation
// when a Checker is attached.
const checkEvery = 64

// shard is one lock stripe: an independent policy instance plus the
// body map it accounts for.
type shard struct {
	mu     sync.Mutex
	policy cache.Policy
	bodies map[trace.ObjectID]Object
}

// Store is the sharded concurrent object store.
type Store struct {
	shards []shard
	shift  uint // 64 - log2(len(shards)), for the multiplicative hash

	// Cross-shard totals, updated under the owning shard's lock but
	// read lock-free.  used is signed only so eviction deltas can be
	// applied with one Add; it never goes negative.
	used  atomic.Int64
	count atomic.Int64
	muts  atomic.Int64 // mutation counter driving the periodic check

	capacity uint64
	label    string
	check    *invariant.Checker

	flight flightGroup

	// Metrics (nil when disabled).
	reg       *obs.Registry
	lockWait  *obs.Timer
	loads     *obs.Counter
	coalesced *obs.Counter
}

// New builds a Store.  A zero capacity is legal and stores nothing
// (every object is oversized), matching the policies' own contract.
// The returned error is always nil.
func New(cfg Config) (*Store, error) {
	n := cfg.shards
	if n == 0 {
		n = autoShards(cfg.CapacityBytes)
	}
	label := cfg.Label
	if label == "" {
		label = "store"
	}
	s := &Store{
		shards:   make([]shard, n),
		shift:    uint(64 - bits.TrailingZeros(uint(n))),
		capacity: cfg.CapacityBytes,
		label:    label,
		check:    cfg.Check,
	}
	s.flight.calls = make(map[trace.ObjectID]*flightCall)
	// Partition the capacity exactly: every shard gets capacity/n,
	// the first capacity%n shards one extra byte.
	base, extra := cfg.CapacityBytes/uint64(n), cfg.CapacityBytes%uint64(n)
	for i := range s.shards {
		budget := base
		if uint64(i) < extra {
			budget++
		}
		s.shards[i].policy = invariant.WrapPolicy(cache.NewGreedyDual(budget), cfg.Check, fmt.Sprintf("%s.shard%d", label, i))
		s.shards[i].bodies = make(map[trace.ObjectID]Object)
	}
	if reg := cfg.Metrics; reg != nil {
		s.reg = reg
		s.lockWait = reg.Timer("store.lock_wait")
		s.loads = reg.Counter("store.loads")
		s.coalesced = reg.Counter("store.coalesced")
	}
	return s, nil
}

// autoShards picks a power-of-two stripe count near GOMAXPROCS,
// backed off until each shard's budget clears minShardBudget.
func autoShards(capacity uint64) int {
	n := ceilPow2(runtime.GOMAXPROCS(0))
	if n > 64 {
		n = 64
	}
	for n > 1 && capacity/uint64(n) < minShardBudget {
		n >>= 1
	}
	return n
}

// ceilPow2 rounds n up to the next power of two (min 1).
func ceilPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// shardFor selects the key's stripe.  Keys are already folded hashes,
// but a multiplicative mix keeps the stripe choice independent of any
// structure in the low bits.
func (s *Store) shardFor(key trace.ObjectID) *shard {
	if len(s.shards) == 1 {
		return &s.shards[0]
	}
	h := uint64(key) * 0x9E3779B97F4A7C15
	return &s.shards[h>>s.shift]
}

// lock acquires the shard's mutex, observing the wait when metrics
// are on.
func (s *Store) lock(sh *shard) {
	if s.lockWait == nil {
		sh.mu.Lock()
		return
	}
	start := time.Now()
	sh.mu.Lock()
	s.lockWait.Observe(time.Since(start))
}

// Get returns the object and refreshes its replacement metadata.
func (s *Store) Get(key trace.ObjectID) (Object, bool) {
	sh := s.shardFor(key)
	s.lock(sh)
	defer sh.mu.Unlock()
	if !sh.policy.Access(key) {
		return Object{}, false
	}
	return sh.bodies[key], true
}

// Put stores an object in its key's shard and returns what was
// evicted to make room.  stored is false when the object exceeds the
// shard's budget (nothing is evicted); an already-present key is
// refreshed instead (stored true, no evictions).  A zero-length body
// returns ErrEmptyObject and is not cached — the caller serves it
// uncached (see the variable's comment).
func (s *Store) Put(key trace.ObjectID, obj Object) (evicted []Object, stored bool, err error) {
	size := len(obj.Body)
	if size == 0 {
		return nil, false, ErrEmptyObject
	}
	sh := s.shardFor(key)
	s.lock(sh)
	if sh.policy.Access(key) {
		sh.mu.Unlock()
		return nil, true, nil
	}
	if uint64(size) > sh.policy.Capacity() {
		sh.mu.Unlock()
		return nil, false, nil
	}
	for _, ev := range sh.policy.Add(cache.Entry{Obj: key, Size: uint32(size), Cost: obj.Cost}) {
		evicted = append(evicted, sh.bodies[ev.Obj])
		delete(sh.bodies, ev.Obj)
		s.used.Add(-int64(ev.Size))
		s.count.Add(-1)
	}
	sh.bodies[key] = obj
	s.used.Add(int64(size))
	s.count.Add(1)
	sh.mu.Unlock()
	s.mutated()
	return evicted, true, nil
}

// Contains reports presence without touching replacement metadata.
func (s *Store) Contains(key trace.ObjectID) bool {
	sh := s.shardFor(key)
	s.lock(sh)
	defer sh.mu.Unlock()
	return sh.policy.Contains(key)
}

// FreeFor reports whether size bytes fit in key's shard without
// eviction — the diversion probe (§4.3).  A zero size trivially fits;
// empty bodies are rejected by Put, not here.
func (s *Store) FreeFor(key trace.ObjectID, size int) bool {
	sh := s.shardFor(key)
	s.lock(sh)
	defer sh.mu.Unlock()
	return sh.policy.Used()+uint64(size) <= sh.policy.Capacity()
}

// Headroom reports the largest body the store takes for any key
// without evicting: the minimum over the shards of capacity − used.
// FreeFor is a per-shard answer, so total free bytes would promise room
// a key hashing to a full shard does not have; the minimum is the
// figure a sender that does not know the shard mapping can rely on
// (Headroom() ≥ n implies FreeFor(k, n) for every k).  Shards are read
// one at a time, so under concurrent Puts the result is advisory.
func (s *Store) Headroom() uint64 {
	least := ^uint64(0)
	for i := range s.shards {
		sh := &s.shards[i]
		s.lock(sh)
		free := sh.policy.Capacity() - sh.policy.Used()
		sh.mu.Unlock()
		if free < least {
			least = free
		}
	}
	return least
}

// Len reports the cached object count across all shards (lock-free).
func (s *Store) Len() int { return int(s.count.Load()) }

// Used reports the total resident bytes across all shards
// (lock-free).
func (s *Store) Used() uint64 { return uint64(s.used.Load()) }

// Capacity is the configured total byte budget.
func (s *Store) Capacity() uint64 { return s.capacity }

// NumShards reports the stripe count.
func (s *Store) NumShards() int { return len(s.shards) }

// mutated drives the periodic cross-shard reconciliation when a
// Checker is attached.
func (s *Store) mutated() {
	if s.check == nil {
		return
	}
	if s.muts.Add(1)%checkEvery == 0 {
		s.CheckInvariants()
	}
}

// lockAll acquires every shard lock in index order (the only
// multi-lock path, so the ordering is a total one and cannot
// deadlock); the returned func releases them.
func (s *Store) lockAll() func() {
	for i := range s.shards {
		s.lock(&s.shards[i])
	}
	return func() {
		for i := range s.shards {
			s.shards[i].mu.Unlock()
		}
	}
}

// Snapshot returns a consistent per-shard accounting snapshot (all
// shards locked simultaneously, so in-flight updates quiesce).
func (s *Store) Snapshot() []invariant.ShardSnapshot {
	unlock := s.lockAll()
	defer unlock()
	out := make([]invariant.ShardSnapshot, len(s.shards))
	for i := range s.shards {
		out[i] = invariant.ShardSnapshot{
			Used:     s.shards[i].policy.Used(),
			Capacity: s.shards[i].policy.Capacity(),
			Len:      s.shards[i].policy.Len(),
		}
	}
	return out
}

// Item pairs a resident object with its folded policy key, for
// callers that need to enumerate the store (the /digest build).
type Item struct {
	Key    trace.ObjectID
	Object Object
}

// Items returns every resident object, shard by shard (each shard is
// locked only while it is copied, so the walk does not quiesce the
// whole store).  Bodies are shared, not copied — callers must treat
// them as read-only.
func (s *Store) Items() []Item {
	out := make([]Item, 0, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		s.lock(sh)
		for key, obj := range sh.bodies {
			out = append(out, Item{Key: key, Object: obj})
		}
		sh.mu.Unlock()
	}
	return out
}

// CheckInvariants reconciles the atomic cross-shard totals against a
// locked per-shard snapshot (invariant.CheckShardPartition); a nil
// Checker makes it a no-op.
func (s *Store) CheckInvariants() {
	if s.check == nil {
		return
	}
	unlock := s.lockAll()
	snap := make([]invariant.ShardSnapshot, len(s.shards))
	for i := range s.shards {
		snap[i] = invariant.ShardSnapshot{
			Used:     s.shards[i].policy.Used(),
			Capacity: s.shards[i].policy.Capacity(),
			Len:      s.shards[i].policy.Len(),
		}
	}
	used, count := uint64(s.used.Load()), int(s.count.Load())
	unlock()
	s.check.CheckShardPartition(s.label, snap, used, s.capacity, count)
}

// PublishMetrics folds the store's occupancy into its registry as
// store.* gauges (scrape-time snapshot; the live counters and the
// lock-wait timer accumulate continuously).  No-op without a
// registry.
func (s *Store) PublishMetrics() {
	if s.reg == nil {
		return
	}
	s.reg.Gauge("store.shards").Set(float64(len(s.shards)))
	s.reg.Gauge("store.capacity_bytes").Set(float64(s.capacity))
	s.reg.Gauge("store.used_bytes").Set(float64(s.Used()))
	s.reg.Gauge("store.objects").Set(float64(s.Len()))
	for i, snap := range s.Snapshot() {
		s.reg.Gauge(fmt.Sprintf("store.shard.%d.used_bytes", i)).Set(float64(snap.Used))
		s.reg.Gauge(fmt.Sprintf("store.shard.%d.objects", i)).Set(float64(snap.Len))
	}
}

var _ Interface = (*Store)(nil)
