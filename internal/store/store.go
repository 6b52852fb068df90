// Package store is the live data plane's concurrent object store: one
// greedy-dual policy (internal/cache), the paper's policy at every
// tier, and the body map it accounts for, behind one mutex, with
// concurrent misses on the same key coalesced into one loader call.
//
// Every daemon runs one policy over its whole byte budget, as the
// paper's caches (§3–4) and the simulator do, so its evictions and its
// free space do not depend on the host's core count.  GetOrLoad adds
// singleflight miss coalescing: a thundering herd of K concurrent
// getters of an absent key costs one origin fetch, not K.
//
// The simulator keeps its deterministic single-threaded function-call
// path (internal/sim) — this package serves only the live HTTP system
// (internal/httpcache) and its benchmarks.  Observability follows the
// repo-wide contract: a nil *obs.Registry and nil *invariant.Checker
// disable metrics and shadow checking at zero cost.
package store

import (
	"errors"
	"sync"

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

// Config sizes a Store.
type Config struct {
	// CapacityBytes is the byte budget of the store's one policy.
	CapacityBytes uint64
	// Metrics, when non-nil, receives the store.* namespace (see
	// METRICS.md): the miss-coalescing counters live, occupancy on
	// PublishMetrics.
	Metrics *obs.Registry
	// Check, when non-nil, wraps the policy in invariant.CheckedPolicy
	// and enables the body-map reconciliation (CheckInvariants, also
	// run every checkEvery mutations).
	Check *invariant.Checker
	// Label distinguishes multiple stores in violation details and
	// defaults to "store".
	Label string
}

// checkEvery is the mutation period of the body-map reconciliation
// when a Checker is attached.
const checkEvery = 64

// Store is the concurrent object store.
type Store struct {
	mu     sync.Mutex
	policy cache.Policy
	bodies map[trace.ObjectID]Object
	muts   int // mutations under mu, driving the periodic check

	label string
	check *invariant.Checker

	flight flightGroup

	// Metrics (nil when disabled).
	reg       *obs.Registry
	loads     *obs.Counter
	coalesced *obs.Counter
}

// New builds a Store.  A zero capacity is legal and stores nothing
// (every object is oversized), matching the policies' own contract.
// The returned error is always nil.
func New(cfg Config) (*Store, error) {
	label := cfg.Label
	if label == "" {
		label = "store"
	}
	s := &Store{
		policy: invariant.WrapPolicy(cache.NewGreedyDual(cfg.CapacityBytes), cfg.Check, label),
		bodies: make(map[trace.ObjectID]Object),
		label:  label,
		check:  cfg.Check,
	}
	s.flight.calls = make(map[trace.ObjectID]*flightCall)
	if reg := cfg.Metrics; reg != nil {
		s.reg = reg
		s.loads = reg.Counter("store.loads")
		s.coalesced = reg.Counter("store.coalesced")
	}
	return s, nil
}

// Get returns the object and refreshes its replacement metadata.
func (s *Store) Get(key trace.ObjectID) (Object, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.policy.Access(key) {
		return Object{}, false
	}
	return s.bodies[key], true
}

// Put stores an object and returns what was evicted to make room.
// stored is false when the object exceeds the capacity (nothing is
// evicted); an already-present key is refreshed instead (stored true,
// no evictions).  A zero-length body returns ErrEmptyObject and is not
// cached — the caller serves it uncached (see the variable's comment).
func (s *Store) Put(key trace.ObjectID, obj Object) (evicted []Object, stored bool, err error) {
	if len(obj.Body) == 0 {
		return nil, false, ErrEmptyObject
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.policy.Access(key) {
		return nil, true, nil
	}
	if uint64(len(obj.Body)) > s.policy.Capacity() {
		return nil, false, nil
	}
	return s.insert(key, obj), true, nil
}

// insert adds an absent, admissible object under mu and returns the
// bodies the policy evicted for it.
func (s *Store) insert(key trace.ObjectID, obj Object) (evicted []Object) {
	for _, ev := range s.policy.Add(cache.Entry{Obj: key, Size: uint32(len(obj.Body)), Cost: obj.Cost}) {
		evicted = append(evicted, s.bodies[ev.Obj])
		delete(s.bodies, ev.Obj)
	}
	s.bodies[key] = obj
	s.muts++
	if s.check != nil && s.muts%checkEvery == 0 {
		s.checkLocked()
	}
	return evicted
}

// Headroom reports the largest body the store takes without evicting,
// for any key: capacity − used, one policy holding every key.  It is
// the diversion probe (§4.3).  Under concurrent Puts the figure is
// advisory.
func (s *Store) Headroom() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.policy.Capacity() - s.policy.Used()
}

// Len reports the cached object count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.policy.Len()
}

// Used reports the resident bytes.
func (s *Store) Used() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.policy.Used()
}

// Capacity is the configured byte budget.  The policy's capacity
// never changes, so it is read without the lock.
func (s *Store) Capacity() uint64 { return s.policy.Capacity() }

// Item pairs a resident object with its folded policy key, for
// callers that need to enumerate the store (the /digest build).
type Item struct {
	Key    trace.ObjectID
	Object Object
}

// Items returns every resident object.  Bodies are shared, not copied
// — callers must treat them as read-only.
func (s *Store) Items() []Item {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Item, 0, len(s.bodies))
	for key, obj := range s.bodies {
		out = append(out, Item{Key: key, Object: obj})
	}
	return out
}

// CheckInvariants reconciles the body map against the policy's
// accounting (invariant.CheckStoreBodies); a nil Checker makes it a
// no-op.
func (s *Store) CheckInvariants() {
	if s.check == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.checkLocked()
}

// checkLocked runs the body-map reconciliation under mu.
func (s *Store) checkLocked() {
	var bytes uint64
	for _, obj := range s.bodies {
		bytes += uint64(len(obj.Body))
	}
	s.check.CheckStoreBodies(s.label, len(s.bodies), bytes, s.policy.Len(), s.policy.Used())
}

// PublishMetrics folds the store's occupancy into its registry as
// store.* gauges (scrape-time snapshot; the live counters accumulate
// continuously).  No-op without a registry.
func (s *Store) PublishMetrics() {
	if s.reg == nil {
		return
	}
	s.reg.Gauge("store.capacity_bytes").Set(float64(s.Capacity()))
	s.reg.Gauge("store.used_bytes").Set(float64(s.Used()))
	s.reg.Gauge("store.objects").Set(float64(s.Len()))
}
