// Package directory implements the proxy-side lookup directory over a
// P2P client cache (paper §4.2).  When a request misses in the local
// proxy cache, the proxy consults its directory to decide whether to
// redirect the request into its P2P client cache.
//
// Two representations are provided, exactly as the paper proposes:
//
//   - Exact-Directory: a hash table of the objectIds of every object
//     cached in the P2P client cache — no false positives, memory
//     proportional to the cached population;
//   - Bloom filter: a counting Bloom filter — bounded memory with a
//     configurable false-positive ratio (false positives cost a wasted
//     P2P lookup, which the simulator charges and the ablation bench
//     measures).
package directory

import (
	"sort"

	"webcache/internal/bloom"
	"webcache/internal/trace"
)

// Directory tracks which objects a proxy believes live in its P2P
// client cache.
type Directory interface {
	// Name identifies the representation in metrics.
	Name() string
	// Add records that obj is now stored in the P2P client cache.
	Add(obj trace.ObjectID)
	// Remove records that obj was evicted from the P2P client cache.
	Remove(obj trace.ObjectID)
	// MayContain reports whether obj may be stored (exact for
	// Exact-Directory; false positives possible for Bloom).
	MayContain(obj trace.ObjectID) bool
	// Len is the number of objects currently recorded (net adds).
	Len() int
	// MemoryBytes estimates the directory's memory footprint.
	MemoryBytes() uint64
	// Objects snapshots the recorded object ids in ascending order.
	Objects() []trace.ObjectID
}

// Exact is the paper's Exact-Directory: a hashtable of objectIds.
type Exact struct {
	set map[trace.ObjectID]struct{}
}

// NewExact creates an empty Exact-Directory.
func NewExact() *Exact {
	return &Exact{set: make(map[trace.ObjectID]struct{})}
}

// Name implements Directory.
func (d *Exact) Name() string { return "exact" }

// Add implements Directory.
func (d *Exact) Add(obj trace.ObjectID) { d.set[obj] = struct{}{} }

// Remove implements Directory.
func (d *Exact) Remove(obj trace.ObjectID) { delete(d.set, obj) }

// MayContain implements Directory (and is exact).
func (d *Exact) MayContain(obj trace.ObjectID) bool {
	_, ok := d.set[obj]
	return ok
}

// Len implements Directory.
func (d *Exact) Len() int { return len(d.set) }

// MemoryBytes implements Directory: the paper's exact directory stores
// a 160-bit SHA-1 objectId per entry (20 bytes) plus hash-table
// overhead (~1.5x load factor, 8-byte buckets).
func (d *Exact) MemoryBytes() uint64 {
	return uint64(len(d.set)) * (20 + 12)
}

var _ Directory = (*Exact)(nil)

// Bloom is the counting-Bloom-filter directory.
type Bloom struct {
	filter *bloom.Counting
	// present guards Remove against keys never added (removing an
	// absent key would corrupt the filter) and provides Len.  In a
	// deployment this knowledge is implicit in the store receipts the
	// proxy processes; it is not counted as directory memory.
	present map[trace.ObjectID]struct{}
}

// NewBloom creates a Bloom directory sized for capacity objects at the
// given false-positive rate.
func NewBloom(capacity int, fpRate float64) *Bloom {
	return &Bloom{
		filter:  bloom.NewCountingForCapacity(capacity, fpRate),
		present: make(map[trace.ObjectID]struct{}, capacity),
	}
}

// Name implements Directory.
func (d *Bloom) Name() string { return "bloom" }

// Add implements Directory.
func (d *Bloom) Add(obj trace.ObjectID) {
	if _, dup := d.present[obj]; dup {
		return
	}
	d.present[obj] = struct{}{}
	d.filter.Add(uint64(obj))
}

// Remove implements Directory.
func (d *Bloom) Remove(obj trace.ObjectID) {
	if _, ok := d.present[obj]; !ok {
		return
	}
	delete(d.present, obj)
	d.filter.Remove(uint64(obj))
}

// MayContain implements Directory; false positives possible.
func (d *Bloom) MayContain(obj trace.ObjectID) bool {
	return d.filter.MayContain(uint64(obj))
}

// Len implements Directory.
func (d *Bloom) Len() int { return len(d.present) }

// MemoryBytes implements Directory: the filter's packed counters.
func (d *Bloom) MemoryBytes() uint64 { return d.filter.MemoryBytes() }

var _ Directory = (*Bloom)(nil)

// sortedIDs snapshots a set's keys in ascending order.
func sortedIDs[V any](m map[trace.ObjectID]V) []trace.ObjectID {
	out := make([]trace.ObjectID, 0, len(m))
	for obj := range m {
		out = append(out, obj)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Objects implements Directory.
func (d *Exact) Objects() []trace.ObjectID { return sortedIDs(d.set) }

// Objects implements Directory.
func (d *Bloom) Objects() []trace.ObjectID { return sortedIDs(d.present) }
