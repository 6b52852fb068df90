// Package bloom implements plain and counting Bloom filters (Bloom
// 1970; counting variant per Fan et al.'s Summary Cache, the paper's
// reference [7]).  The paper's proxies can use a Bloom filter as the
// lookup directory over their P2P client cache (§4.2), trading memory
// for a false-positive ratio; the counting variant supports the
// deletions that client-cache evictions require.
package bloom

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Filter is a plain Bloom filter over 64-bit keys.
type Filter struct {
	bits []uint64
	m    uint64 // number of bits
	k    int    // number of hash functions
	n    uint64 // insertions (for fill-ratio estimation)
}

// OptimalParams returns the bit count m and hash count k minimizing
// memory for the target false-positive probability with n expected
// elements: m = -n ln p / (ln 2)^2, k = (m/n) ln 2.
func OptimalParams(n int, p float64) (m uint64, k int) {
	if n < 1 {
		n = 1
	}
	if p <= 0 {
		p = 1e-9
	}
	if p >= 1 {
		p = 0.99
	}
	ln2 := math.Ln2
	mf := -float64(n) * math.Log(p) / (ln2 * ln2)
	m = uint64(math.Ceil(mf))
	if m < 64 {
		m = 64
	}
	k = int(math.Round(mf / float64(n) * ln2))
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return m, k
}

// New creates a filter with m bits and k hash functions.
func New(m uint64, k int) (*Filter, error) {
	if m == 0 || k < 1 {
		return nil, fmt.Errorf("bloom: invalid parameters m=%d k=%d", m, k)
	}
	return &Filter{bits: make([]uint64, (m+63)/64), m: m, k: k}, nil
}

// NewForCapacity sizes a filter for n elements at false-positive rate p.
func NewForCapacity(n int, p float64) *Filter {
	m, k := OptimalParams(n, p)
	f, err := New(m, k)
	if err != nil {
		panic("bloom: optimal parameters invalid: " + err.Error())
	}
	return f
}

// hashes derives the double-hashing pair (Kirsch & Mitzenmacher) the k
// bit positions of a key come from: h_i = h1 + i*h2 mod m.
func hashes(key uint64) (h1, h2 uint64) {
	// The stride is kept odd so indexes cycle through the table.
	return mix64(key), mix64(key^0x9e3779b97f4a7c15) | 1
}

// mix64 is the splitmix64 finalizer — a strong 64-bit mixer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Add inserts key.
func (f *Filter) Add(key uint64) {
	h1, h2 := hashes(key)
	for i := 0; i < f.k; i++ {
		idx := (h1 + uint64(i)*h2) % f.m
		f.bits[idx/64] |= 1 << (idx % 64)
	}
	f.n++
}

// MayContain reports whether key may have been added (no false
// negatives; false positives at the configured rate).
func (f *Filter) MayContain(key uint64) bool {
	h1, h2 := hashes(key)
	for i := 0; i < f.k; i++ {
		idx := (h1 + uint64(i)*h2) % f.m
		if f.bits[idx/64]&(1<<(idx%64)) == 0 {
			return false
		}
	}
	return true
}

// Reset clears the filter.
func (f *Filter) Reset() {
	for i := range f.bits {
		f.bits[i] = 0
	}
	f.n = 0
}

// MemoryBytes is the filter's bit-array footprint.
func (f *Filter) MemoryBytes() uint64 { return uint64(len(f.bits)) * 8 }

// K returns the hash count; M the bit count.
func (f *Filter) K() int    { return f.k }
func (f *Filter) M() uint64 { return f.m }

// The wire form of a Filter, as one cache publishes its digest to
// another (Summary Cache): a header of wireMagic, k as uint32, m and n
// as uint64, then the ceil(m/64) words of the bit array, all
// little-endian.  The bit positions depend on nothing but the key, m
// and k, so a filter unmarshalled in another process answers exactly as
// the one marshalled.
const (
	wireMagic  = "BLM1"
	wireHeader = len(wireMagic) + 4 + 8 + 8
	// MaxWireK and MaxWireM bound what the wire form carries: a filter
	// is data from another process, and k hashes per probe or m bits of
	// table past these are no digest anyone sent in good faith.
	MaxWireK = 64
	MaxWireM = 1 << 32
)

// MarshalBinary encodes the filter in its wire form; it fails only for
// a filter past MaxWireK or MaxWireM.
func (f *Filter) MarshalBinary() ([]byte, error) {
	if f.k > MaxWireK || f.m > MaxWireM {
		return nil, fmt.Errorf("bloom: filter m=%d k=%d too large for the wire", f.m, f.k)
	}
	b := make([]byte, wireHeader, wireHeader+8*len(f.bits))
	copy(b, wireMagic)
	binary.LittleEndian.PutUint32(b[4:], uint32(f.k))
	binary.LittleEndian.PutUint64(b[8:], f.m)
	binary.LittleEndian.PutUint64(b[16:], f.n)
	for _, w := range f.bits {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b, nil
}

// UnmarshalBinary replaces f with the filter data encodes.  The data is
// untrusted: k and m are bounded, and the length is checked against m
// before anything is allocated, so a filter never costs more memory
// than the bytes that carried it.
func (f *Filter) UnmarshalBinary(data []byte) error {
	if len(data) < wireHeader || string(data[:len(wireMagic)]) != wireMagic {
		return fmt.Errorf("bloom: not a filter (%d bytes)", len(data))
	}
	k := binary.LittleEndian.Uint32(data[4:])
	m := binary.LittleEndian.Uint64(data[8:])
	if k < 1 || k > MaxWireK || m < 1 || m > MaxWireM {
		return fmt.Errorf("bloom: filter parameters m=%d k=%d out of bounds", m, k)
	}
	words := (m + 63) / 64
	if uint64(len(data)-wireHeader) != 8*words {
		return fmt.Errorf("bloom: %d bytes of bits for m=%d, want %d", len(data)-wireHeader, m, 8*words)
	}
	bits := make([]uint64, words)
	for i := range bits {
		bits[i] = binary.LittleEndian.Uint64(data[wireHeader+8*i:])
	}
	*f = Filter{bits: bits, m: m, k: int(k), n: binary.LittleEndian.Uint64(data[16:])}
	return nil
}

// Counting is a counting Bloom filter with 4-bit counters, supporting
// Remove.  Counters saturate at 15 and, once saturated, are never
// decremented (the standard safe behaviour that preserves the
// no-false-negative guarantee at the cost of rare stuck counters).
// Counters are packed two per byte, so the directory memory the
// simulator reports (§4.2 comparisons) is the memory actually used.
type Counting struct {
	counters []uint8 // 4-bit counters, two per byte: low nibble = even index
	m        uint64
	k        int
	n        uint64
}

const countingMax = 15

// counter reads the 4-bit counter at idx.
func (c *Counting) counter(idx uint64) uint8 {
	return (c.counters[idx/2] >> (4 * (idx % 2))) & 0xf
}

// setCounter writes the 4-bit counter at idx.
func (c *Counting) setCounter(idx uint64, v uint8) {
	shift := 4 * (idx % 2)
	c.counters[idx/2] = c.counters[idx/2]&^(0xf<<shift) | v<<shift
}

// NewCounting creates a counting filter with m counters and k hashes.
func NewCounting(m uint64, k int) (*Counting, error) {
	if m == 0 || k < 1 {
		return nil, fmt.Errorf("bloom: invalid parameters m=%d k=%d", m, k)
	}
	return &Counting{counters: make([]uint8, (m+1)/2), m: m, k: k}, nil
}

// NewCountingForCapacity sizes a counting filter for n elements at
// false-positive rate p.
func NewCountingForCapacity(n int, p float64) *Counting {
	m, k := OptimalParams(n, p)
	c, err := NewCounting(m, k)
	if err != nil {
		panic("bloom: optimal parameters invalid: " + err.Error())
	}
	return c
}

func (c *Counting) index(key uint64, i int) uint64 {
	h1, h2 := hashes(key)
	return (h1 + uint64(i)*h2) % c.m
}

// Add inserts key.
func (c *Counting) Add(key uint64) {
	for i := 0; i < c.k; i++ {
		idx := c.index(key, i)
		if v := c.counter(idx); v < countingMax {
			c.setCounter(idx, v+1)
		}
	}
	c.n++
}

// Remove deletes one insertion of key.  Removing a key that was never
// added corrupts the filter (as with any counting Bloom filter); the
// directory layer guards against it.
func (c *Counting) Remove(key uint64) {
	for i := 0; i < c.k; i++ {
		idx := c.index(key, i)
		if v := c.counter(idx); v > 0 && v < countingMax {
			c.setCounter(idx, v-1)
		}
	}
	if c.n > 0 {
		c.n--
	}
}

// MayContain reports whether key may be present.
func (c *Counting) MayContain(key uint64) bool {
	for i := 0; i < c.k; i++ {
		if c.counter(c.index(key, i)) == 0 {
			return false
		}
	}
	return true
}

// MemoryBytes reports the counter-array footprint (4-bit counters
// packed two per byte — exactly what the implementation allocates).
func (c *Counting) MemoryBytes() uint64 { return uint64(len(c.counters)) }
