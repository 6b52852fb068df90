package pastry

import (
	"bytes"
	"encoding/hex"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func ridRand(rng *rand.Rand) ID { return ID{rng.Uint64(), rng.Uint64()} }

func TestIDFromBytesAndString(t *testing.T) {
	b := make([]byte, 16)
	for i := range b {
		b[i] = byte(i)
	}
	id := IDFromBytes(b)
	if got, want := id.String(), "000102030405060708090a0b0c0d0e0f"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got, want := string(id.AppendHex([]byte("key="))), "key=000102030405060708090a0b0c0d0e0f"; got != want {
		t.Errorf("AppendHex = %q, want %q", got, want)
	}
}

func TestHashIDDeterministicAndSpread(t *testing.T) {
	a := HashString("http://example.com/a")
	b := HashString("http://example.com/a")
	c := HashString("http://example.com/b")
	if a != b {
		t.Error("same input hashed differently")
	}
	if a == c {
		t.Error("different inputs collided")
	}
	if HashUint64(7) != HashUint64(7) || HashUint64(7) == HashUint64(8) {
		t.Error("HashUint64 inconsistent")
	}
}

func TestCmpAndLess(t *testing.T) {
	a := ID{0, 5}
	b := ID{0, 6}
	c := ID{1, 0}
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 || a.Cmp(a) != 0 {
		t.Error("Cmp low word wrong")
	}
	if !b.Less(c) || c.Less(b) {
		t.Error("Less high word wrong")
	}
}

func TestSubWraps(t *testing.T) {
	a := ID{0, 1}
	b := ID{0, 3}
	d := a.sub(b)                          // 1 - 3 mod 2^128
	want := ID{^uint64(0), ^uint64(0) - 1} // -2 mod 2^128
	if d != want {
		t.Errorf("sub = %v, want %v", d, want)
	}
}

func TestDistanceSymmetricAndMin(t *testing.T) {
	a := ID{0, 10}
	b := ID{0, 4}
	if a.Distance(b) != b.Distance(a) {
		t.Error("distance not symmetric")
	}
	if d := a.Distance(b); d != (ID{0, 6}) {
		t.Errorf("distance = %v, want 6", d)
	}
	// Wraparound: near-0 and near-max are close.
	lo := ID{0, 2}
	hi := ID{^uint64(0), ^uint64(0) - 1} // max-1
	if d := lo.Distance(hi); d != (ID{0, 4}) {
		t.Errorf("wraparound distance = %v, want 4", d)
	}
}

func TestCloserToThanTieBreak(t *testing.T) {
	key := ID{0, 10}
	a := ID{0, 8}
	b := ID{0, 12}
	// Equal distance 2: smaller id wins.
	if !a.CloserToThan(key, b) {
		t.Error("tie should go to smaller id")
	}
	if b.CloserToThan(key, a) {
		t.Error("larger id won tie")
	}
}

func TestDigit(t *testing.T) {
	id := IDFromBytes([]byte{0xAB, 0xCD, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x3C})
	// b=4: hex digits.
	if d := id.Digit(0, 4); d != 0xA {
		t.Errorf("digit 0 (b=4) = %x, want a", d)
	}
	if d := id.Digit(1, 4); d != 0xB {
		t.Errorf("digit 1 (b=4) = %x, want b", d)
	}
	if d := id.Digit(3, 4); d != 0xD {
		t.Errorf("digit 3 (b=4) = %x, want d", d)
	}
	if d := id.Digit(31, 4); d != 0xC {
		t.Errorf("digit 31 (b=4) = %x, want c", d)
	}
	// b=2.
	if d := id.Digit(0, 2); d != 0b10 {
		t.Errorf("digit 0 (b=2) = %b, want 10", d)
	}
	// b=1.
	if d := id.Digit(0, 1); d != 1 {
		t.Errorf("digit 0 (b=1) = %d, want 1", d)
	}
	if d := id.Digit(1, 1); d != 0 {
		t.Errorf("digit 1 (b=1) = %d, want 0", d)
	}
}

func TestCommonPrefixLen(t *testing.T) {
	a := IDFromBytes([]byte{0xAB, 0xCD, 0xEF, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	b4 := IDFromBytes([]byte{0xAB, 0xC0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	if got := a.CommonPrefixLen(b4, 4); got != 3 {
		t.Errorf("prefix len = %d, want 3", got)
	}
	if got := a.CommonPrefixLen(a, 4); got != 32 {
		t.Errorf("self prefix len = %d, want 32", got)
	}
}

func TestValidateB(t *testing.T) {
	for _, b := range []int{1, 2, 4, 8} {
		if err := ValidateB(b); err != nil {
			t.Errorf("b=%d rejected: %v", b, err)
		}
	}
	for _, b := range []int{0, 3, 5, 16, -1} {
		if err := ValidateB(b); err == nil {
			t.Errorf("b=%d accepted", b)
		}
	}
}

// Property: digits reassemble to the id (b=4).
func TestPropDigitsReconstruct(t *testing.T) {
	f := func(hi, lo uint64) bool {
		id := ID{hi, lo}
		var rebuilt ID
		for i := 0; i < 32; i++ {
			d := uint64(id.Digit(i, 4))
			if i < 16 {
				rebuilt.hi |= d << uint(60-4*i)
			} else {
				rebuilt.lo |= d << uint(60-4*(i-16))
			}
		}
		return rebuilt == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Distance satisfies d(a,b) <= 2^127 (it is the minor arc).
func TestPropDistanceMinorArc(t *testing.T) {
	half := ID{1 << 63, 0}
	f := func(a0, a1, b0, b1 uint64) bool {
		d := ID{a0, a1}.Distance(ID{b0, b1})
		return !half.Less(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: sub is the inverse of modular addition: (a-b)+b == a via
// distance checks — verify a.sub(b).Cmp + reconstruct.
func TestPropSubAddInverse(t *testing.T) {
	f := func(a0, a1, b0, b1 uint64) bool {
		a := ID{a0, a1}
		b := ID{b0, b1}
		d := a.sub(b)
		// add d back to b
		lo := b.lo + d.lo
		var carry uint64
		if lo < b.lo {
			carry = 1
		}
		sum := ID{b.hi + d.hi + carry, lo}
		return sum == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzIDArith holds the word arithmetic of ID to math/big on the
// integers its 16 big-endian bytes spell: the ring difference and
// distance, the orders, the digits and shared prefixes at every digit
// width, the fold, and the bytes and hex round trip.  An input shorter
// than 16 bytes is zero-padded, a longer one cut.
func FuzzIDArith(f *testing.F) {
	zero, ones := make([]byte, 16), bytes.Repeat([]byte{0xff}, 16)
	top := append([]byte{0x80}, make([]byte, 15)...)
	loMax := append(make([]byte, 8), bytes.Repeat([]byte{0xff}, 8)...)
	hiOne := append(append(make([]byte, 7), 1), make([]byte, 8)...)
	f.Add(zero, zero)
	f.Add(zero, ones)
	f.Add(zero, top)    // half a ring apart: the arcs tie
	f.Add(loMax, hiOne) // adjacent across the word boundary
	f.Add(ones, top)
	f.Add([]byte("0123456789abcdef"), []byte("0123456789abcdeg"))
	ring := new(big.Int).Lsh(big.NewInt(1), IDBits)
	mask64 := new(big.Int).SetUint64(^uint64(0))
	mod := func(x *big.Int) *big.Int { return x.Mod(x, ring) }
	num := func(x ID) *big.Int {
		b, _ := hex.DecodeString(x.String())
		return new(big.Int).SetBytes(b)
	}
	f.Fuzz(func(t *testing.T, in1, in2 []byte) {
		var b1, b2 [16]byte
		copy(b1[:], in1)
		copy(b2[:], in2)
		a, b := IDFromBytes(b1[:]), IDFromBytes(b2[:])
		x, y := new(big.Int).SetBytes(b1[:]), new(big.Int).SetBytes(b2[:])

		for _, c := range []struct {
			id  ID
			raw []byte
		}{{a, b1[:]}, {b, b2[:]}} {
			if got, want := c.id.String(), hex.EncodeToString(c.raw); got != want {
				t.Fatalf("String() = %s, want %s", got, want)
			}
			back, err := hex.DecodeString(c.id.String())
			if err != nil || IDFromBytes(back) != c.id {
				t.Fatalf("IDFromBytes(hex %s) = %v (%v), want %v", c.id.String(), IDFromBytes(back), err, c.id)
			}
			n := new(big.Int).SetBytes(c.raw)
			hi := new(big.Int).Rsh(n, 64).Uint64()
			lo := new(big.Int).And(n, mask64).Uint64()
			if got, want := c.id.Fold(), hi^(lo<<31|lo>>33); got != want {
				t.Fatalf("%v.Fold() = %x, want %x", c.id, got, want)
			}
		}

		dxy := mod(new(big.Int).Sub(x, y))
		dyx := mod(new(big.Int).Sub(y, x))
		if got := num(a.sub(b)); got.Cmp(dxy) != 0 {
			t.Fatalf("%v.sub(%v) = %x, want %x", a, b, got, dxy)
		}
		minor := dxy
		if dyx.Cmp(dxy) < 0 {
			minor = dyx
		}
		if got := num(a.Distance(b)); got.Cmp(minor) != 0 {
			t.Fatalf("%v.Distance(%v) = %x, want %x", a, b, got, minor)
		}
		if got, want := a.Cmp(b), x.Cmp(y); got != want {
			t.Fatalf("%v.Cmp(%v) = %d, want %d", a, b, got, want)
		}
		if got, want := a.Less(b), x.Cmp(y) < 0; got != want {
			t.Fatalf("%v.Less(%v) = %v, want %v", a, b, got, want)
		}

		shared := IDBits - new(big.Int).Xor(x, y).BitLen()
		for _, w := range []int{1, 2, 4, 8} {
			if got := a.CommonPrefixLen(b, w); got != shared/w {
				t.Fatalf("%v.CommonPrefixLen(%v, %d) = %d, want %d", a, b, w, got, shared/w)
			}
			digitMask := big.NewInt(1<<w - 1)
			for i := 0; i < IDBits/w; i++ {
				d := new(big.Int).Rsh(x, uint(IDBits-(i+1)*w))
				if got, want := a.Digit(i, w), d.And(d, digitMask).Int64(); int64(got) != want {
					t.Fatalf("%v.Digit(%d, %d) = %d, want %d", a, i, w, got, want)
				}
			}
		}

		// CloserToThan over every ordered triple of the two ids and the
		// two that swap their words, which brings equal high words, and
		// so near ties, into play.
		ids := []ID{a, b, {a.hi, b.lo}, {b.hi, a.lo}}
		dist := func(p, key ID) *big.Int {
			d1 := mod(new(big.Int).Sub(num(p), num(key)))
			d2 := mod(new(big.Int).Sub(num(key), num(p)))
			if d2.Cmp(d1) < 0 {
				return d2
			}
			return d1
		}
		for _, p := range ids {
			for _, key := range ids {
				for _, q := range ids {
					cmp := dist(p, key).Cmp(dist(q, key))
					want := cmp < 0 || (cmp == 0 && num(p).Cmp(num(q)) < 0)
					if got := p.CloserToThan(key, q); got != want {
						t.Fatalf("%v.CloserToThan(%v, %v) = %v, want %v", p, key, q, got, want)
					}
				}
			}
		}
	})
}
