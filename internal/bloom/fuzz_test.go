package bloom

import (
	"bytes"
	"testing"
)

// FuzzFilterUnmarshal feeds arbitrary bytes to UnmarshalBinary, as a
// cache receiving a peer's digest does.  Whatever the bytes, it does not
// panic, a filter it accepts costs no more memory than the bytes that
// carried it, and that filter marshals back to exactly those bytes.  The
// seeds are in testdata/fuzz/FuzzFilterUnmarshal: an honest digest, an
// empty one, a header alone, a header announcing 2^32 bits with eight
// bytes of them, k of zero.
func FuzzFilterUnmarshal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Filter
		allocs := testing.AllocsPerRun(1, func() { g = Filter{}; _ = g.UnmarshalBinary(data) })
		if err := g.UnmarshalBinary(data); err != nil {
			return
		}
		if allocs > 1 || uint64(len(g.bits))*8 > uint64(len(data)) {
			t.Fatalf("a %d-byte filter made %.0f allocations of %d words", len(data), allocs, len(g.bits))
		}
		back, err := g.MarshalBinary()
		if err != nil || !bytes.Equal(back, data) {
			t.Fatalf("round trip: %d bytes in, %d out, err %v", len(data), len(back), err)
		}
		g.MayContain(uint64(len(data))) // a probe stays inside the table
	})
}

// FuzzCounting replays an op script against a deliberately tiny
// nibble-packed counting filter while a shadow multiset tracks which
// keys are live.  The invariant is the one the Bloom directory variant
// rests on (§4.2): a key with more insertions than removals must never
// read as absent.  Removals follow the directory discipline — only
// keys still live in the shadow are removed — because removing a
// never-added key corrupts any counting Bloom filter by design.
//
// The filter is sized at m=64, k=3 with one-byte keys, so scripts of a
// few dozen ops already force index collisions and counter saturation
// (countingMax), exercising the saturate-and-never-decrement rule that
// preserves no-false-negatives in the packed representation.
func FuzzCounting(f *testing.F) {
	// add/remove churn over a handful of keys.
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 1, 2, 2, 1, 2, 0, 1, 1, 3})
	// hammer one key past the 4-bit saturation point, then drain it.
	seed := make([]byte, 0, 80)
	for i := 0; i < 20; i++ {
		seed = append(seed, 0, 7)
	}
	for i := 0; i < 20; i++ {
		seed = append(seed, 1, 7)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, script []byte) {
		c, err := NewCounting(64, 3)
		if err != nil {
			t.Fatal(err)
		}
		live := make(map[uint64]int)
		for i := 0; i+1 < len(script); i += 2 {
			key := uint64(script[i+1])
			switch script[i] % 3 {
			case 0:
				c.Add(key)
				live[key]++
			case 1:
				if live[key] > 0 {
					c.Remove(key)
					live[key]--
				}
			case 2:
				// Pure probe; the check below is the assertion.
			}
			if live[key] > 0 && !c.MayContain(key) {
				t.Fatalf("false negative for key %d after op %d", key, i/2)
			}
		}
		for key, n := range live {
			if n > 0 && !c.MayContain(key) {
				t.Fatalf("false negative for live key %d at end of script", key)
			}
		}
	})
}
