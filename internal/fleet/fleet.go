// Package fleet turns a set of cooperating proxies into one
// horizontally scaled cache tier (ROADMAP item 2): a consistent-hash
// ring with virtual nodes partitions the object namespace across the
// members, per-key load estimates drive k-way replication of hot
// objects, and a membership diff answers exactly which keys must
// migrate when a member joins or leaves.
//
// The package is pure data structures — no sockets, no goroutines —
// so the same ring drives two consumers: the live proxy daemons
// (internal/httpcache routes misses to the owner and rebalances on
// join/leave) and the simulator's fleet engine (internal/sim).  The
// replication blueprint follows PAPERS.md's cluster-based replication
// and QoS-aware replica management architectures: partition first,
// then replicate the hot tail with load-aware placement.
package fleet

import (
	"math/bits"
	"sort"
	"sync"

	"webcache/internal/pastry"
	"webcache/internal/trace"
)

// DefaultVirtualNodes is the per-member virtual-node count.  128
// points per member keeps the largest partition within ~20% of the
// mean at fleet sizes up to a few dozen — enough that splitting a
// fixed capacity N ways does not strand it on one hot member.
const DefaultVirtualNodes = 128

// Fold compresses a 128-bit pastry objectId into the 64-bit key the
// data plane uses everywhere (the same folding internal/httpcache
// applies; defined here so the ring and the proxies derive identical
// keys from one formula).
func Fold(id pastry.ID) trace.ObjectID {
	return trace.ObjectID(id[0] ^ bits.RotateLeft64(id[1], 31))
}

// point is one virtual node: a position on the 64-bit ring owned by a
// member.
type point struct {
	h      uint64
	member string
}

// Ring is a consistent-hash ring over fleet members (proxy base URLs
// or any other stable member names).  Placement is deterministic in
// the member names alone — every member that builds a ring from the
// same list computes the same ownership, with no seed exchange.
// Methods are safe for concurrent use.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	points []point // sorted by h
	member map[string]bool
}

// NewRing creates an empty ring with the given virtual-node count per
// member (0 = DefaultVirtualNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{vnodes: vnodes, member: make(map[string]bool)}
}

// NewRingOf builds a ring over the given members.
func NewRingOf(vnodes int, members []string) *Ring {
	r := NewRing(vnodes)
	for _, m := range members {
		r.Add(m)
	}
	return r
}

// pointHash places virtual node i of a member: FNV-1a over the member
// name and the vnode index (deterministic, seedless).
func pointHash(member string, i int) uint64 {
	h := uint64(14695981039346656037)
	step := func(c byte) {
		h ^= uint64(c)
		h *= 1099511628211
	}
	for j := 0; j < len(member); j++ {
		step(member[j])
	}
	step('#')
	for ; ; i >>= 8 {
		step(byte(i))
		if i < 256 {
			break
		}
	}
	// FNV's upper bits avalanche poorly on short, similar inputs
	// ("proxy-0" vs "proxy-7"), and ring ordering is dominated by the
	// upper bits — finalize with splitmix64 to spread the points.
	return mix64(h)
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// keyPoint maps an (already hashed) object key onto the ring via a
// splitmix64 finalizer, decorrelating it from the vnode point space.
func keyPoint(key trace.ObjectID) uint64 {
	return mix64(uint64(key) + 0x9e3779b97f4a7c15)
}

// Add inserts a member (its vnodes), reporting whether the membership
// changed.
func (r *Ring) Add(member string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if member == "" || r.member[member] {
		return false
	}
	r.member[member] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, point{pointHash(member, i), member})
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].h < r.points[b].h })
	return true
}

// Remove drops a member, reporting whether the membership changed.
func (r *Ring) Remove(member string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.member[member] {
		return false
	}
	delete(r.member, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
	return true
}

// Has reports membership.
func (r *Ring) Has(member string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.member[member]
}

// Members returns the member names, sorted.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.member))
	for m := range r.member {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Size is the member count.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.member)
}

// Clone returns an independent copy of the ring — the "before"
// snapshot a rebalance diff needs.
func (r *Ring) Clone() *Ring {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c := &Ring{vnodes: r.vnodes, member: make(map[string]bool, len(r.member))}
	for m := range r.member {
		c.member[m] = true
	}
	c.points = append([]point(nil), r.points...)
	return c
}

// OwnerOf returns the member owning key: the first virtual node at or
// clockwise after the key's ring position.  false on an empty ring.
func (r *Ring) OwnerOf(key trace.ObjectID) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	h := keyPoint(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	return r.points[i%len(r.points)].member, true
}

// ReplicasOf returns the key's replica candidate set: the owner
// followed by the next distinct members clockwise, min(k, Size)
// entries.  Index 0 is always the owner, so ReplicasOf(key, 1)[0] ==
// OwnerOf(key).
func (r *Ring) ReplicasOf(key trace.ObjectID, k int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || k <= 0 {
		return nil
	}
	if k > len(r.member) {
		k = len(r.member)
	}
	h := keyPoint(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	out := make([]string, 0, k)
	seen := make(map[string]bool, k)
	for n := 0; n < len(r.points) && len(out) < k; n++ {
		m := r.points[(i+n)%len(r.points)].member
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// MigrationSet computes the incremental-rebalance work for one member:
// of the keys the member currently holds, exactly those it owned under
// the before ring whose owner differs under the after ring.  Everything
// else stays put — the consistent-hash guarantee a join/leave rebalance
// is gated on (only ~1/N of the space moves per membership change).
func MigrationSet(before, after *Ring, self string, keys []trace.ObjectID) []trace.ObjectID {
	var out []trace.ObjectID
	for _, key := range keys {
		was, ok := before.OwnerOf(key)
		if !ok || was != self {
			continue
		}
		now, ok := after.OwnerOf(key)
		if ok && now != self {
			out = append(out, key)
		}
	}
	return out
}
