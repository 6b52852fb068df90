// Package cache implements the replacement policies the paper's
// caching schemes use: LRU, perfect-frequency LFU, the greedy-dual
// algorithm (Young 1998) that Hier-GD runs at proxies and client
// caches, and the offline cost-benefit placement that gives
// FC/FC-EC their coordinated upper bound.
//
// All policies implement the Policy interface so the simulator can
// compose them into the seven caching schemes.  Capacities and sizes
// are in abstract cache units; the paper fixes Size==1 ("all objects
// have the same size") but the policies handle variable sizes.
package cache

import (
	"fmt"

	"webcache/internal/trace"
)

// Entry is one cached object with the metadata replacement decisions
// need: its size and the cost that was paid to fetch it (the
// greedy-dual "cost" — in this system, the fetch latency).
type Entry struct {
	Obj  trace.ObjectID
	Size uint32
	Cost float64
}

// Policy is a replacement policy managing one cache's contents.
//
// The access protocol mirrors a cache lookup/fill cycle:
//
//	if p.Access(obj) { hit }          // touches replacement metadata
//	else { fetch...; evicted := p.Add(Entry{...}) }
//
// Add returns the entries evicted to make room (possibly several under
// variable sizes, or none).  An entry larger than the whole cache, or
// with zero size (which would make cost/size H-values infinite), is
// rejected: Add returns no evictions and does not cache it — callers
// can detect this with Contains.
type Policy interface {
	// Name identifies the policy in metrics and test output.
	Name() string
	// Access reports whether obj is cached, updating replacement
	// metadata (recency, frequency, or H-value) on a hit.
	Access(obj trace.ObjectID) bool
	// Add inserts an entry, evicting as needed; it returns the evicted
	// entries.  Adding an already-present object is a programming
	// error and panics (callers must use Access first).
	//
	// The returned slice is a scratch buffer owned by the policy and is
	// only valid until the next Add on the same policy: callers must
	// consume (or copy) it before inserting again.  This keeps the
	// steady-state eviction path allocation-free.
	Add(e Entry) []Entry
	// Remove deletes obj if present, returning its entry.
	Remove(obj trace.ObjectID) (Entry, bool)
	// Contains reports presence without touching metadata.
	Contains(obj trace.ObjectID) bool
	// Peek returns the stored entry without touching metadata.
	Peek(obj trace.ObjectID) (Entry, bool)
	// Len is the number of cached objects.
	Len() int
	// Used is the total size of cached objects.
	Used() uint64
	// Capacity is the configured maximum total size.
	Capacity() uint64
	// Objects lists the cached object ids in ascending order (a
	// snapshot; mutation-safe to iterate).
	Objects() []trace.ObjectID
}

// addable reports whether Add may cache e.  An entry larger than the
// whole cache is refused, and so is a zero-size one: it would divide
// Cost/Size to +Inf in the greedy-dual H value and pin the object
// forever.  Adding an object that is already cached is a programming
// error and panics.
func addable(name string, e Entry, present bool, capacity uint64) bool {
	if present {
		panic(fmt.Sprintf("cache: %s.Add(%d): object already cached", name, e.Obj))
	}
	return e.Size != 0 && uint64(e.Size) <= capacity
}
