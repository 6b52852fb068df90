package cache

import (
	"math/bits"
	"math/rand/v2"

	"webcache/internal/trace"
)

// slotTable maps object ids to int32 slots for the online policies:
// open addressing with linear probing over interleaved {id, slot+1}
// entries, where 0 marks an empty one.  Load stays at most one half,
// and deletion shifts the rest of the probe run back, so the table
// holds no tombstones and a miss stops at the first empty entry.
//
// An id's home entry is a multiplicative hash keyed by a per-table
// random odd multiplier, drawn at first growth.  The live store's ids
// are folded hashes of URLs that clients choose; under a fixed
// multiplier an attacker could pick URLs whose ids share a home and make
// every operation on a shard linear.  There is no iteration, so nothing
// the policies decide depends on the multiplier.
//
// Ids below the table's universe skip the hashing: they index direct,
// which holds slot+1 per id (0 = absent).  A trace's object ids are
// dense below its NumObjects, so the simulator's LFU tiers declare that
// as their universe and a lookup is one array load.
//
// The zero value is an empty table with no universe.
type slotTable struct {
	direct []int32
	nd     int // ids held in direct
	ents   []slotEnt
	n      int    // ids held in ents
	shift  uint   // 64 - log2(len(ents))
	mul    uint64 // odd; 0 until the first growth draws it
}

type slotEnt struct {
	id   trace.ObjectID
	slot int32 // slot+1; 0 marks an empty entry
}

// golden is 2^64 over the golden ratio, the fixed odd multiplier of
// Fibonacci hashing.
const golden = 0x9e3779b97f4a7c15

// home is id's first probe entry: the top bits of id times the table's
// multiplier, folded and multiplied once more.  Multiply-shift alone
// turns an arithmetic progression of ids (the simulator's dense ids, or
// an attacker's) into another one, and for about one multiplier in
// seventy that progression piles into a single probe run hundreds of
// entries long; the fold breaks the progression.
func (t *slotTable) home(id trace.ObjectID) int {
	x := uint64(id) * t.mul
	x ^= x >> 32
	return int(x * golden >> t.shift)
}

// newSlotTable returns an empty table whose ids below universe index
// the direct array.
func newSlotTable(universe int) slotTable {
	return slotTable{direct: make([]int32, universe)}
}

// len returns the number of ids held.
func (t *slotTable) len() int { return t.nd + t.n }

// get returns the slot stored under id.
func (t *slotTable) get(id trace.ObjectID) (int32, bool) {
	if uint64(id) < uint64(len(t.direct)) {
		if s := t.direct[id]; s != 0 {
			return s - 1, true
		}
		return 0, false
	}
	if t.n == 0 {
		return 0, false
	}
	mask := len(t.ents) - 1
	for i := t.home(id); ; i = (i + 1) & mask {
		e := &t.ents[i]
		if e.slot == 0 {
			return 0, false
		}
		if e.id == id {
			return e.slot - 1, true
		}
	}
}

// has reports whether id is held.
func (t *slotTable) has(id trace.ObjectID) bool {
	_, ok := t.get(id)
	return ok
}

// put stores slot s (which must be non-negative) under id, replacing
// any slot already there.
func (t *slotTable) put(id trace.ObjectID, s int32) {
	if uint64(id) < uint64(len(t.direct)) {
		if t.direct[id] == 0 {
			t.nd++
		}
		t.direct[id] = s + 1
		return
	}
	if 2*(t.n+1) > len(t.ents) {
		t.grow()
	}
	mask := len(t.ents) - 1
	for i := t.home(id); ; i = (i + 1) & mask {
		e := &t.ents[i]
		if e.slot == 0 {
			*e = slotEnt{id, s + 1}
			t.n++
			return
		}
		if e.id == id {
			e.slot = s + 1
			return
		}
	}
}

// delete removes id and reports whether it was held.
func (t *slotTable) delete(id trace.ObjectID) bool {
	if uint64(id) < uint64(len(t.direct)) {
		if t.direct[id] == 0 {
			return false
		}
		t.direct[id] = 0
		t.nd--
		return true
	}
	if t.n == 0 {
		return false
	}
	mask := len(t.ents) - 1
	i := t.home(id)
	for t.ents[i].slot != 0 && t.ents[i].id != id {
		i = (i + 1) & mask
	}
	if t.ents[i].slot == 0 {
		return false
	}
	// Backward shift: a later member of the probe run moves into the
	// hole when the hole lies on its probe path, between its home entry
	// and where it sits; the hole then moves to where it was.
	for j := (i + 1) & mask; t.ents[j].slot != 0; j = (j + 1) & mask {
		if (j-t.home(t.ents[j].id))&mask >= (j-i)&mask {
			t.ents[i] = t.ents[j]
			i = j
		}
	}
	t.ents[i] = slotEnt{}
	t.n--
	return true
}

// grow doubles the entry array and re-inserts every id.  The first
// growth draws the multiplier and makes 64 entries, room for 32 ids, so
// a small cache (a client's) does not grow its table three times over.
func (t *slotTable) grow() {
	if t.mul == 0 {
		t.mul = rand.Uint64() | 1
	}
	old := t.ents
	size := max(64, 2*len(old))
	t.ents = make([]slotEnt, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.n = 0
	for _, e := range old {
		if e.slot != 0 {
			t.put(e.id, e.slot-1)
		}
	}
}
