package pastry

import "math/bits"

// IDTable maps ids to values: open addressing with linear probing
// from a slot chosen by a multiplicative hash of both words of the id.
// Deletion shifts the rest of the probe run back, so the table holds
// no tombstones and a miss stops at the first empty slot.  A route
// looks a node up at every hop, and a Go map keyed by ID would hash all
// sixteen bytes with the runtime's generic hash on each of them.
//
// The zero value is an empty table.  Range visits entries in slot
// order, which follows from the sequence of puts and deletes alone, so
// iteration is deterministic.
type IDTable[T any] struct {
	slots []idSlot[T]
	n     int
	shift uint // 64 - log2(len(slots))
}

type idSlot[T any] struct {
	id ID
	v  *T // nil marks an empty slot
}

// home is id's first probe slot: the top bits of a multiplicative hash
// of a word that mixes both halves of the id, so ids that differ in
// either half only (in tests, in the low bits of the low half) still
// spread.
func (t *IDTable[T]) home(id ID) int {
	return int(((id.hi*0x9e3779b97f4a7c15 + id.lo) * 0xbf58476d1ce4e5b9) >> t.shift)
}

// Len returns the number of entries.
func (t *IDTable[T]) Len() int { return t.n }

// Get returns the value stored under id, or nil.
func (t *IDTable[T]) Get(id ID) *T {
	if t.n == 0 {
		return nil
	}
	mask := len(t.slots) - 1
	for i := t.home(id); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.v == nil || s.id == id {
			return s.v
		}
	}
}

// Put stores v (which must not be nil) under id, replacing any value
// already there.
func (t *IDTable[T]) Put(id ID, v *T) {
	if v == nil {
		panic("pastry: IDTable.Put of a nil value")
	}
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(id); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.v == nil {
			*s = idSlot[T]{id, v}
			t.n++
			return
		}
		if s.id == id {
			s.v = v
			return
		}
	}
}

// Delete removes id and reports whether it was present.
func (t *IDTable[T]) Delete(id ID) bool {
	if t.n == 0 {
		return false
	}
	mask := len(t.slots) - 1
	i := t.home(id)
	for t.slots[i].v != nil && t.slots[i].id != id {
		i = (i + 1) & mask
	}
	if t.slots[i].v == nil {
		return false
	}
	// Backward shift: a later member of the probe run moves into the
	// hole when the hole lies on its probe path, between its home slot
	// and where it sits; the hole then moves to where it was.
	for j := (i + 1) & mask; t.slots[j].v != nil; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].id))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = idSlot[T]{}
	t.n--
	return true
}

// Range calls f on every value in slot order until f returns false.
// f must not put or delete.
func (t *IDTable[T]) Range(f func(*T) bool) {
	for _, s := range t.slots {
		if s.v != nil && !f(s.v) {
			return
		}
	}
}

// grow doubles the slot array (at least 8 slots) and re-inserts every
// entry in the old slot order.
func (t *IDTable[T]) grow() {
	old := t.slots
	size := max(8, 2*len(old))
	t.slots = make([]idSlot[T], size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.n = 0
	for _, s := range old {
		if s.v != nil {
			t.Put(s.id, s.v)
		}
	}
}
