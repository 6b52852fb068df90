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

// FuzzDigestSummary replays an op script against a Summary sized for
// four keys, so scripts soon outgrow it, while a shadow multiset tracks
// what it holds.  Each publish (and the end of the script) grows the
// summary if it is full, counting the shadow into the grown one as a
// proxy counts its directory and store, then checks what it published:
// the filter endorses every key held and, while no counter has
// saturated, it is bit for bit the Filter that Add builds over those
// keys, n included.
func FuzzDigestSummary(f *testing.F) {
	// Add/remove churn over a handful of keys, publishing between.
	f.Add([]byte{0, 1, 0, 2, 2, 0, 0, 3, 1, 1, 2, 0, 0, 1, 1, 2, 2, 0})
	// Forty distinct keys, then half of them out: growth and removal.
	seed := make([]byte, 0, 130)
	for i := byte(0); i < 40; i++ {
		seed = append(seed, 0, i)
	}
	seed = append(seed, 2, 0)
	for i := byte(0); i < 40; i += 2 {
		seed = append(seed, 1, i)
	}
	f.Add(append(seed, 2, 0))
	// One key past the 4-bit saturation point, then drained.
	seed = seed[:0]
	for range 20 {
		seed = append(seed, 0, 7)
	}
	for range 20 {
		seed = append(seed, 1, 7)
	}
	f.Add(append(seed, 0, 8, 2, 0))
	f.Fuzz(func(t *testing.T, script []byte) {
		s := NewSummary(4, 0.01)
		live := make(map[uint64]int)
		publish := func(at int) {
			if next := s.Grown(); next != nil {
				for key, n := range live {
					for range n {
						next.Add(key)
					}
				}
				s.Replace(next)
			}
			if s.Full() {
				t.Fatalf("op %d: the summary is full after growing", at)
			}
			data, err := s.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var got Filter
			if err := got.UnmarshalBinary(data); err != nil {
				t.Fatalf("op %d: the published digest does not unmarshal: %v", at, err)
			}
			for key, n := range live {
				if n > 0 && !got.MayContain(key) {
					t.Fatalf("op %d: the published digest does not endorse held key %d", at, key)
				}
			}
			if saturated(&s.count) {
				return
			}
			want, _ := New(got.M(), got.K())
			for key, n := range live {
				for range n {
					want.Add(key)
				}
			}
			if wire, _ := want.MarshalBinary(); !bytes.Equal(wire, data) {
				t.Fatalf("op %d: the published digest differs from Filter.Add over the %d keys held", at, len(live))
			}
		}
		for i := 0; i+1 < len(script); i += 2 {
			key := uint64(script[i+1])
			switch script[i] % 3 {
			case 0:
				s.Add(key)
				live[key]++
			case 1:
				if live[key] > 0 {
					s.Remove(key)
					if live[key]--; live[key] == 0 {
						delete(live, key)
					}
				}
			case 2:
				publish(i / 2)
			}
		}
		publish(len(script) / 2)
	})
}

// saturated reports whether any of c's counters is stuck at
// countingMax.
func saturated(c *Counting) bool {
	for idx := uint64(0); idx < c.m; idx++ {
		if c.counter(idx) == countingMax {
			return true
		}
	}
	return false
}
