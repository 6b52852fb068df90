package bloom

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFilterNoFalseNegatives(t *testing.T) {
	f := NewForCapacity(1000, 0.01)
	for i := uint64(0); i < 1000; i++ {
		f.Add(i)
	}
	for i := uint64(0); i < 1000; i++ {
		if !f.MayContain(i) {
			t.Fatalf("false negative for %d", i)
		}
	}
}

func TestFilterFalsePositiveRateNearTarget(t *testing.T) {
	const n = 5000
	const target = 0.01
	f := NewForCapacity(n, target)
	for i := uint64(0); i < n; i++ {
		f.Add(i)
	}
	fps := 0
	const probes = 100000
	for i := uint64(n); i < n+probes; i++ {
		if f.MayContain(i) {
			fps++
		}
	}
	rate := float64(fps) / probes
	if rate > 3*target {
		t.Errorf("false positive rate %.4f far above target %.4f", rate, target)
	}
	if est := f.EstimatedFPRate(); est > 2*target {
		t.Errorf("estimated rate %.4f above target", est)
	}
}

// The wire form answers exactly as the filter it came from, and a
// header that lies about its size or parameters is refused.
func TestFilterWireRoundTrip(t *testing.T) {
	f := NewForCapacity(500, 0.01)
	for i := uint64(0); i < 500; i += 2 {
		f.Add(i)
	}
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var g Filter
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if g.M() != f.M() || g.K() != f.K() || g.EstimatedFPRate() != f.EstimatedFPRate() {
		t.Fatalf("m, k = %d, %d, want %d, %d", g.M(), g.K(), f.M(), f.K())
	}
	for i := uint64(0); i < 5000; i++ {
		if g.MayContain(i) != f.MayContain(i) {
			t.Fatalf("key %d: the unmarshalled filter answers %v", i, g.MayContain(i))
		}
	}
	header := func(k uint32, m uint64) []byte {
		b := []byte(wireMagic)
		b = binary.LittleEndian.AppendUint32(b, k)
		b = binary.LittleEndian.AppendUint64(b, m)
		return binary.LittleEndian.AppendUint64(b, 0)
	}
	for name, bad := range map[string][]byte{
		"empty":           nil,
		"short header":    data[:wireHeader-1],
		"wrong magic":     append([]byte("BLM2"), data[4:]...),
		"k of zero":       append(header(0, 64), make([]byte, 8)...),
		"k past the cap":  append(header(MaxWireK+1, 64), make([]byte, 8)...),
		"m of zero":       header(7, 0),
		"m past the cap":  header(7, MaxWireM+1),
		"bits cut short":  data[:len(data)-1],
		"bits left over":  append(append([]byte(nil), data...), 0),
		"2^32 bits in 8B": append(header(7, MaxWireM), make([]byte, 8)...),
	} {
		if err := new(Filter).UnmarshalBinary(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestFilterReset(t *testing.T) {
	f := NewForCapacity(100, 0.01)
	f.Add(42)
	f.Reset()
	if f.MayContain(42) {
		t.Error("contains after reset")
	}
}

func TestOptimalParams(t *testing.T) {
	m, k := OptimalParams(1000, 0.01)
	// Theory: m ≈ 9.59 n, k ≈ 7.
	if m < 9000 || m > 11000 {
		t.Errorf("m = %d, want ~9586", m)
	}
	if k < 6 || k > 8 {
		t.Errorf("k = %d, want ~7", k)
	}
	// Degenerate inputs clamp instead of failing.
	if m, k := OptimalParams(0, -1); m < 64 || k < 1 {
		t.Errorf("degenerate params m=%d k=%d", m, k)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 3); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := New(64, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewCounting(0, 1); err == nil {
		t.Error("counting m=0 accepted")
	}
}

func TestCountingAddRemove(t *testing.T) {
	c := NewCountingForCapacity(100, 0.01)
	c.Add(7)
	if !c.MayContain(7) {
		t.Fatal("missing after add")
	}
	c.Remove(7)
	if c.MayContain(7) {
		t.Error("present after remove")
	}
}

func TestCountingMultipleAdds(t *testing.T) {
	c := NewCountingForCapacity(100, 0.01)
	c.Add(7)
	c.Add(7)
	c.Remove(7)
	if !c.MayContain(7) {
		t.Error("one of two insertions removed the key entirely")
	}
	c.Remove(7)
	if c.MayContain(7) {
		t.Error("present after both removed")
	}
}

func TestCountingSaturation(t *testing.T) {
	c, _ := NewCounting(64, 2)
	// Saturate a key's counters.
	for i := 0; i < 100; i++ {
		c.Add(5)
	}
	// Saturated counters never decrement: the key stays visible no
	// matter how many removals happen (safe, no false negatives for
	// other keys sharing the counter).
	for i := 0; i < 200; i++ {
		c.Remove(5)
	}
	if !c.MayContain(5) {
		t.Error("saturated counter decremented")
	}
}

func TestCountingNoFalseNegativesUnderChurn(t *testing.T) {
	c := NewCountingForCapacity(2000, 0.01)
	rng := rand.New(rand.NewSource(1))
	present := map[uint64]int{}
	for step := 0; step < 20000; step++ {
		k := uint64(rng.Intn(3000))
		if rng.Intn(2) == 0 {
			c.Add(k)
			present[k]++
		} else if present[k] > 0 {
			c.Remove(k)
			present[k]--
		}
	}
	for k, cnt := range present {
		if cnt > 0 && !c.MayContain(k) {
			t.Fatalf("false negative for %d (count %d)", k, cnt)
		}
	}
}

func TestMemoryBytes(t *testing.T) {
	f, _ := New(1024, 4)
	if f.MemoryBytes() != 128 {
		t.Errorf("plain memory = %d, want 128", f.MemoryBytes())
	}
	c, _ := NewCounting(1024, 4)
	if c.MemoryBytes() != 512 {
		t.Errorf("counting memory = %d, want 512 (4-bit packed)", c.MemoryBytes())
	}
	if f.K() != 4 || f.M() != 1024 || c.K() != 4 || c.M() != 1024 {
		t.Error("accessors wrong")
	}
}

// Property: anything added to a plain filter is always reported present.
func TestPropFilterNoFalseNegatives(t *testing.T) {
	f := func(keys []uint64) bool {
		fl := NewForCapacity(len(keys)+1, 0.01)
		for _, k := range keys {
			fl.Add(k)
		}
		for _, k := range keys {
			if !fl.MayContain(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: counting filter with balanced add/remove histories never
// yields a false negative for keys with net positive count.
func TestPropCountingNoFalseNegatives(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCountingForCapacity(len(ops)+1, 0.05)
		count := map[uint64]int{}
		for _, op := range ops {
			k := uint64(rng.Intn(20))
			if op%2 == 0 {
				c.Add(k)
				count[k]++
			} else if count[k] > 0 {
				c.Remove(k)
				count[k]--
			}
		}
		for k, n := range count {
			if n > 0 && !c.MayContain(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
