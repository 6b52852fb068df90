// Package fleet holds the data plane's key fold and a consistent-hash
// ring: virtual nodes place a set of members on a 64-bit ring, and a
// key belongs to the first member clockwise of its position.  Nothing
// in the data plane routes by the ring; the repo benchmark measures
// its owner lookup (fleet.owner_ns).
package fleet

import (
	"sort"

	"webcache/internal/pastry"
	"webcache/internal/trace"
)

// DefaultVirtualNodes is the per-member virtual-node count.  128
// points per member keeps the largest partition within ~20% of the
// mean at ring sizes up to a few dozen members.
const DefaultVirtualNodes = 128

// Fold is the data plane's key fold (pastry.ID.Fold) as an object id.
func Fold(id pastry.ID) trace.ObjectID { return trace.ObjectID(id.Fold()) }

// point is one virtual node: a position on the 64-bit ring owned by a
// member.
type point struct {
	h      uint64
	member string
}

// Ring is a consistent-hash ring over member names.  Placement is
// deterministic in the member names alone: every ring built from the
// same names computes the same ownership, with no seed exchange.  A
// ring never changes after NewRingOf, so it is safe for concurrent use.
type Ring struct {
	points []point // sorted by h
}

// NewRingOf builds a ring over the given members with vnodes virtual
// nodes each (0 = DefaultVirtualNodes).  Empty and repeated names are
// skipped.
func NewRingOf(vnodes int, members []string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{}
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, point{pointHash(m, i), m})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].h < r.points[b].h })
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

// OwnerOf returns the member owning key: the first virtual node at or
// clockwise after the key's ring position.  false on an empty ring.
func (r *Ring) OwnerOf(key trace.ObjectID) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := keyPoint(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	return r.points[i%len(r.points)].member, true
}
