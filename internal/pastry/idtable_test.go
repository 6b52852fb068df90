package pastry

import "testing"

// idTablePool is the fuzzer's id universe, 64 ids in four groups of 16
// built to stress the probing: ids that differ only in the low word
// (like idNum), only in the high word, only above bit 40 of both words
// (equal low bits everywhere), and ids whose hash has its top six bits
// set, so every table from 8 to 64 slots starts their probe runs in
// its last slot and the runs wrap to slot 0.
func idTablePool() []ID {
	pool := make([]ID, 0, 64)
	for k := uint64(0); k < 16; k++ {
		pool = append(pool, ID{0, k + 1}, ID{k + 1, 0}, ID{7 | k<<40, 3 | k<<41})
	}
	var probe IDTable[int]
	probe.shift = 64 - 6
	for v := uint64(0); len(pool) < 64; v++ {
		if id := (ID{0x5eed, v}); probe.home(id) == 63 {
			pool = append(pool, id)
		}
	}
	return pool
}

// FuzzIDTable runs scripts of put, get and delete against a Go map.
// Each byte is one operation: the top two bits pick it (put, get,
// delete, delete), the low six the id.  After every step Get agrees
// with the map for the id touched, Len with the map's size, and Range
// visits exactly the map's values, each once.
func FuzzIDTable(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x41, 0x81, 0x41, 0x02})
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
	f.Add(wrap)
	fill := make([]byte, 0, 192)
	for i := byte(0); i < 64; i++ {
		fill = append(fill, i)
	}
	for i := byte(0); i < 64; i++ {
		fill = append(fill, 0xc0|(i*37)&63, 0x40|(i*11)&63)
	}
	f.Add(fill)
	pool := idTablePool()
	f.Fuzz(func(t *testing.T, script []byte) {
		var tab IDTable[int]
		want := map[ID]*int{}
		for step, op := range script {
			id := pool[op&63]
			switch op >> 6 {
			case 0:
				v := new(int)
				*v = step
				tab.Put(id, v)
				want[id] = v
			case 1:
			default:
				_, had := want[id]
				if got := tab.Delete(id); got != had {
					t.Fatalf("step %d: Delete(%v) = %v, map had it: %v", step, id, got, had)
				}
				delete(want, id)
			}
			if got := tab.Get(id); got != want[id] {
				t.Fatalf("step %d: Get(%v) = %p, map holds %p", step, id, got, want[id])
			}
			if tab.Len() != len(want) {
				t.Fatalf("step %d: Len() = %d, map holds %d", step, tab.Len(), len(want))
			}
			held := map[*int]bool{}
			for _, v := range want {
				held[v] = true
			}
			visits := 0
			tab.Range(func(v *int) bool {
				if !held[v] {
					t.Fatalf("step %d: Range visits %p, which the map does not hold or Range visited already", step, v)
				}
				delete(held, v)
				visits++
				return true
			})
			if visits != len(want) {
				t.Fatalf("step %d: Range visits %d entries, map holds %d", step, visits, len(want))
			}
		}
		for _, id := range pool {
			if got := tab.Get(id); got != want[id] {
				t.Fatalf("end: Get(%v) = %p, map holds %p", id, got, want[id])
			}
		}
	})
}

// Range stops at the first false, and the zero table answers every
// question without slots.
func TestIDTableRangeStopsAndZeroValue(t *testing.T) {
	var tab IDTable[int]
	if tab.Get(ID{}) != nil || tab.Delete(ID{}) || tab.Len() != 0 {
		t.Fatal("zero table is not empty")
	}
	for i := 0; i < 10; i++ {
		tab.Put(idNum(uint64(i)), new(int))
	}
	calls := 0
	tab.Range(func(*int) bool { calls++; return calls < 3 })
	if calls != 3 {
		t.Errorf("Range called f %d times after it returned false at the third, want 3", calls)
	}
}
