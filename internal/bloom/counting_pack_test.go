package bloom

import "testing"

// The counting filter packs two 4-bit counters per byte; these tests
// pin the nibble arithmetic at byte boundaries and the saturation
// semantics the directory layer depends on.

func TestCountingNibbleBoundaries(t *testing.T) {
	c, err := NewCounting(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the raw counters directly: adjacent nibbles must not bleed
	// into each other through the shared byte.
	for idx := uint64(0); idx < 8; idx++ {
		c.setCounter(idx, uint8(idx+1))
	}
	for idx := uint64(0); idx < 8; idx++ {
		if got := c.counter(idx); got != uint8(idx+1) {
			t.Errorf("counter[%d] = %d, want %d", idx, got, idx+1)
		}
	}
	// Overwriting an even nibble leaves its odd neighbour intact and
	// vice versa.
	c.setCounter(2, 15)
	if got := c.counter(3); got != 4 {
		t.Errorf("counter[3] = %d after writing counter[2], want 4", got)
	}
	c.setCounter(3, 0)
	if got := c.counter(2); got != 15 {
		t.Errorf("counter[2] = %d after clearing counter[3], want 15", got)
	}
}

func TestCountingOddM(t *testing.T) {
	// An odd counter count leaves the final byte half used; the last
	// counter must still work and memory must round up.
	c, err := NewCounting(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.MemoryBytes() != 4 {
		t.Errorf("MemoryBytes() = %d for m=7, want 4", c.MemoryBytes())
	}
	c.setCounter(6, 9)
	if got := c.counter(6); got != 9 {
		t.Errorf("last counter = %d, want 9", got)
	}
}

func TestCountingPackedSaturation(t *testing.T) {
	c, err := NewCounting(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	const key = 42
	for i := 0; i < countingMax+10; i++ {
		c.Add(key)
	}
	h1, _ := hashes(key)
	idx := h1 % c.m // k = 1: the one probe
	if got := c.counter(idx); got != countingMax {
		t.Errorf("counter = %d after %d adds, want saturation at %d", got, countingMax+10, countingMax)
	}
	// A saturated counter is never decremented, preserving the
	// no-false-negative guarantee.
	for i := 0; i < countingMax+10; i++ {
		c.Remove(key)
	}
	if got := c.counter(idx); got != countingMax {
		t.Errorf("counter = %d after removes, want stuck at %d", got, countingMax)
	}
	if !c.MayContain(key) {
		t.Error("saturated key reported absent")
	}
}

func TestCountingMemoryMatchesAllocation(t *testing.T) {
	for _, m := range []uint64{1, 2, 7, 1024, 100_001} {
		c, err := NewCounting(m, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := c.MemoryBytes(), uint64(len(c.counters)); got != want {
			t.Errorf("m=%d: MemoryBytes() = %d, allocated %d", m, got, want)
		}
		if got, want := c.MemoryBytes(), (m+1)/2; got != want {
			t.Errorf("m=%d: MemoryBytes() = %d, want packed %d", m, got, want)
		}
	}
}
