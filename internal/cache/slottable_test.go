package cache

import (
	"testing"

	"webcache/internal/trace"
)

// goldenInverse * golden = 1 (mod 2^64): under multiply-shift by
// golden, id = x * goldenInverse hashes to x, so every x below 2^50
// homes to entry 0 of any table up to 2^14 entries.
const goldenInverse = 0xf1de83e19937733d

// sharedHome returns the x-th of a family of ids that all home to
// entry 0 of every table up to 2^14 entries whose multiplier is golden:
// it inverts home's fold (x ^= x >> 32 is its own inverse) and both
// multiplies.
func sharedHome(x uint64) trace.ObjectID {
	v := x * goldenInverse
	return trace.ObjectID((v ^ v>>32) * goldenInverse)
}

// probeLen is the number of entries a lookup of the longest-probing id
// held in t reads.
func (t *slotTable) probeLen() int {
	mask, longest := len(t.ents)-1, 0
	for i, e := range t.ents {
		if e.slot != 0 {
			longest = max(longest, (i-t.home(e.id))&mask+1)
		}
	}
	return longest
}

// slotTablePool is the fuzzer's id universe under the golden
// multiplier, 64 ids in four groups of 16 built to stress the probing:
// small ids, ids that differ only above bit 40 (equal low bits
// everywhere), ids that share one home entry in every table size, and
// ids homing to the last entry of both table sizes the pool reaches, 64
// and 128 entries, so their probe runs wrap to entry 0.
func slotTablePool() []trace.ObjectID {
	pool := make([]trace.ObjectID, 0, 64)
	for k := uint64(0); k < 16; k++ {
		pool = append(pool, trace.ObjectID(k), trace.ObjectID(7|(k+1)<<40), sharedHome(k+1))
	}
	probe := slotTable{mul: golden, shift: 64 - 7}
	for v := uint64(0); len(pool) < 64; v++ {
		if id := trace.ObjectID(v); probe.home(id) == 127 {
			pool = append(pool, id)
		}
	}
	return pool
}

// FuzzSlotTable runs scripts of put, get and delete against a Go map,
// on a table whose ids below the drawn universe take the direct path.
// Each byte is one operation: the top two bits pick it (put, get,
// delete, delete), the low six the id.  After every step get agrees
// with the map for the id touched, and len with the map's size.  A
// script that puts more than 32 hashed ids grows the table mid-script.
func FuzzSlotTable(f *testing.F) {
	f.Add(uint8(0), []byte{0x00, 0x01, 0x02, 0x41, 0x81, 0x41, 0x02})
	wrap := make([]byte, 0, 64)
	for i := byte(48); i < 64; i++ {
		wrap = append(wrap, i) // the wrapping group, in
	}
	for i := byte(48); i < 64; i += 2 {
		wrap = append(wrap, 0x80|i) // every other one out
	}
	for i := byte(48); i < 64; i++ {
		wrap = append(wrap, 0x40|i) // and each looked up
	}
	f.Add(uint8(0), wrap)
	fill := make([]byte, 0, 192)
	for i := byte(0); i < 64; i++ {
		fill = append(fill, i)
	}
	for i := byte(0); i < 64; i++ {
		fill = append(fill, 0xc0|(i*37)&63, 0x40|(i*11)&63)
	}
	// The small ids straddle a universe of 8 and all lie below one of
	// 200; the other three groups always hash.
	f.Add(uint8(8), fill)
	f.Add(uint8(200), fill)
	pool := slotTablePool()
	f.Fuzz(func(t *testing.T, universe uint8, script []byte) {
		tab := newSlotTable(int(universe))
		tab.mul = golden
		want := map[trace.ObjectID]int32{}
		for step, op := range script {
			id := pool[op&63]
			switch op >> 6 {
			case 0:
				tab.put(id, int32(step))
				want[id] = int32(step)
			case 1:
			default:
				_, had := want[id]
				if got := tab.delete(id); got != had {
					t.Fatalf("step %d: delete(%#x) = %v, map had it: %v", step, id, got, had)
				}
				delete(want, id)
			}
			w, wok := want[id]
			if got, ok := tab.get(id); got != w || ok != wok {
				t.Fatalf("step %d: get(%#x) = %d, %v; map holds %d, %v", step, id, got, ok, w, wok)
			}
			if tab.len() != len(want) {
				t.Fatalf("step %d: len() = %d, map holds %d", step, tab.len(), len(want))
			}
		}
		for _, id := range pool {
			w, wok := want[id]
			if got, ok := tab.get(id); got != w || ok != wok {
				t.Fatalf("end: get(%#x) = %d, %v; map holds %d, %v", id, got, ok, w, wok)
			}
		}
	})
}

// 4 096 ids that all share one home entry under multiply-shift by the
// golden multiplier would make a fixed-multiplier table probe thousands
// of entries per lookup; under the table's own random multiplier they
// spread.  They are also an arithmetic progression, the shape that
// defeats multiply-shift under about one random multiplier in seventy.
// At load one half the longest probe is tens of entries (17 to 24 in
// most tables, 75 the worst of 50 000), so the bound is 128.
func TestSlotTableAdversarialKeys(t *testing.T) {
	const n = 4096
	fixed := slotTable{mul: golden}
	var seeded, other slotTable
	for x := uint64(1); x <= n; x++ {
		id := trace.ObjectID(x * goldenInverse)
		if uint64(id)*golden>>(64-14) != 0 {
			t.Fatalf("id %#x does not home to entry 0 under multiply-shift by golden", id)
		}
		fixed.put(sharedHome(x), int32(x))
		seeded.put(id, int32(x))
		other.put(id, 0)
	}
	if got := fixed.probeLen(); got < n {
		t.Fatalf("ids sharing a home under a fixed multiplier probe at most %d entries, want all %d in one run", got, n)
	}
	if got := seeded.probeLen(); got > 128 {
		t.Errorf("under multiplier %#x the longest probe is %d entries, want at most 128", seeded.mul, got)
	}
	if seeded.mul == other.mul {
		t.Errorf("two tables drew the same multiplier %#x", seeded.mul)
	}
	for x := uint64(1); x <= n; x++ {
		if s, ok := seeded.get(trace.ObjectID(x * goldenInverse)); !ok || s != int32(x) {
			t.Fatalf("get(%d-th id) = %d, %v", x, s, ok)
		}
	}
}
