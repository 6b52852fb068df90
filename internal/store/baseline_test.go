package store

import (
	"sync"

	"webcache/internal/cache"
	"webcache/internal/trace"
)

// Baseline is the reference implementation the differential test
// (TestStoreMatchesBaselineSequentially) diffs the Store against: one
// mutex in front of one policy instance and its body map.
type Baseline struct {
	mu     sync.Mutex
	policy cache.Policy
	bodies map[trace.ObjectID]Object
}

// NewBaseline builds a single-mutex greedy-dual store.
func NewBaseline(capacityBytes uint64) *Baseline {
	return &Baseline{policy: cache.NewGreedyDual(capacityBytes), bodies: make(map[trace.ObjectID]Object)}
}

// Get returns the object and refreshes its replacement metadata.
func (b *Baseline) Get(key trace.ObjectID) (Object, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.policy.Access(key) {
		return Object{}, false
	}
	return b.bodies[key], true
}

// Put stores an object under the single lock, mirroring Store.Put's
// contract (including ErrEmptyObject).
func (b *Baseline) Put(key trace.ObjectID, obj Object) (evicted []Object, stored bool, err error) {
	size := len(obj.Body)
	if size == 0 {
		return nil, false, ErrEmptyObject
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.policy.Access(key) {
		return nil, true, nil
	}
	if uint64(size) > b.policy.Capacity() {
		return nil, false, nil
	}
	for _, ev := range b.policy.Add(cache.Entry{Obj: key, Size: uint32(size), Cost: obj.Cost}) {
		evicted = append(evicted, b.bodies[ev.Obj])
		delete(b.bodies, ev.Obj)
	}
	b.bodies[key] = obj
	return evicted, true, nil
}

// Len reports the cached object count.
func (b *Baseline) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.policy.Len()
}

// Used reports the resident bytes.
func (b *Baseline) Used() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.policy.Used()
}
