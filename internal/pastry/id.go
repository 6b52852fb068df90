// Package pastry implements the Pastry structured overlay (Rowstron &
// Druschel, Middleware 2001) that the paper's P2P client cache is built
// on (§4.1): 128-bit circular identifier space, prefix routing with
// 2^b-ary digits, per-node routing tables and leaf sets, node join, and
// failure handling.
//
// The paper relies on three Pastry properties, all of which this
// package provides and its tests verify:
//
//   - DHT functionality: a key is owned by the live node whose id is
//     numerically closest to it (object "pass-down" in Hier-GD);
//   - routing reaches the owner in ceil(log_{2^b} N) hops in the common
//     case (the paper's ~log16(1024) ≈ 3-4 LAN hops argument);
//   - the leaf set gives each node the l numerically closest neighbours
//     (used for object diversion in storage management, §4.3).
package pastry

import (
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
	"unsafe"
)

// IDBits is the width of the Pastry identifier space.
const IDBits = 128

// ID is a 128-bit Pastry identifier on the circular id space, held as
// two words: hi is the most significant 64 bits, lo the least.  It is
// a struct rather than a [2]uint64 because the gc compiler keeps a
// struct of two words in registers but spills an array longer than one
// element to the stack, and every routing step compares, subtracts and
// measures ids.  IDs are comparable with == and usable as map keys.
type ID struct {
	hi, lo uint64
}

// IDFromBytes builds an ID from the first 16 bytes of b (which must
// have at least 16).
func IDFromBytes(b []byte) ID {
	return ID{hi: binary.BigEndian.Uint64(b[:8]), lo: binary.BigEndian.Uint64(b[8:16])}
}

// HashID derives an ID by SHA-1, truncated to 128 bits — the paper's
// objectId derivation ("the proxy first hashes the URL of this object
// into an objectId using SHA-1", §4.1).
func HashID(data []byte) ID {
	sum := sha1.Sum(data)
	return IDFromBytes(sum[:])
}

// HashString is HashID for strings (URLs, node names).  The string's
// bytes are aliased rather than copied: HashID only reads its input,
// so the conversion is safe, and the live proxy hashes every request
// URL on its hot path — a heap copy per request is exactly the kind
// of allocation the request-path alloc gate forbids.
func HashString(s string) ID {
	if len(s) == 0 {
		return HashID(nil)
	}
	return HashID(unsafe.Slice(unsafe.StringData(s), len(s)))
}

// HashUint64 derives an ID from a numeric key (the simulator's object
// ids) via SHA-1 so ids spread uniformly over the ring.
func HashUint64(v uint64) ID {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return HashID(b[:])
}

// String renders the ID as 32 hex digits.
func (a ID) String() string {
	var b [32]byte
	return string(a.AppendHex(b[:0]))
}

// AppendHex appends the ID's 32 hex digits (String's) to b.
func (a ID) AppendHex(b []byte) []byte {
	var raw [16]byte
	binary.BigEndian.PutUint64(raw[:8], a.hi)
	binary.BigEndian.PutUint64(raw[8:], a.lo)
	return hex.AppendEncode(b, raw[:])
}

// Fold compresses the 128-bit ID into the 64-bit key the live data
// plane's caches are keyed by.  A birthday collision would need ~2^32
// distinct ids in one cache.
func (a ID) Fold() uint64 { return a.hi ^ bits.RotateLeft64(a.lo, 31) }

// Cmp compares a and b as unsigned 128-bit integers: -1, 0, or +1.
func (a ID) Cmp(b ID) int {
	switch {
	case a.hi < b.hi:
		return -1
	case a.hi > b.hi:
		return 1
	case a.lo < b.lo:
		return -1
	case a.lo > b.lo:
		return 1
	default:
		return 0
	}
}

// Less reports a < b in plain unsigned order.
func (a ID) Less(b ID) bool { return a.Cmp(b) < 0 }

// sub returns a-b mod 2^128 (clockwise ring distance from b to a).
func (a ID) sub(b ID) ID {
	lo, borrow := bits.Sub64(a.lo, b.lo, 0)
	hi, _ := bits.Sub64(a.hi, b.hi, borrow)
	return ID{hi: hi, lo: lo}
}

// Distance returns the circular distance between a and b: the minimum
// of the two arc lengths.  The arcs sum to 2^128, so the one from b to
// a is the shorter exactly when its top bit is clear.
func (a ID) Distance(b ID) ID {
	d := a.sub(b)
	if d.hi>>63 != 0 {
		return b.sub(a)
	}
	return d
}

// CloserToThan reports whether a is strictly closer to key than c is,
// with the deterministic tie-break "smaller id wins" so ownership is
// unambiguous on an even ring.
func (a ID) CloserToThan(key, c ID) bool {
	da := a.Distance(key)
	dc := c.Distance(key)
	if cmp := da.Cmp(dc); cmp != 0 {
		return cmp < 0
	}
	return a.Less(c)
}

// Digit returns the i-th digit (0 = most significant) of the id in base
// 2^b.  b must divide 64 evenly into digit boundaries (1, 2, 4, or 8).
func (a ID) Digit(i, b int) int {
	bitOffset := i * b
	word := a.hi
	if bitOffset >= 64 {
		word = a.lo
	}
	shift := 64 - b - bitOffset%64
	return int(word>>uint(shift)) & ((1 << b) - 1)
}

// CommonPrefixLen returns the number of leading base-2^b digits a and b
// share: the leading bits they share, in whole digits (b is a power of
// two, see ValidateB, so the division is a shift).
func (a ID) CommonPrefixLen(other ID, b int) int {
	shared := IDBits
	if x := a.hi ^ other.hi; x != 0 {
		shared = bits.LeadingZeros64(x)
	} else if x := a.lo ^ other.lo; x != 0 {
		shared = 64 + bits.LeadingZeros64(x)
	}
	return shared >> uint(bits.TrailingZeros(uint(b)))
}

// ValidateB checks an overlay digit-width parameter.
func ValidateB(b int) error {
	switch b {
	case 1, 2, 4, 8:
		return nil
	default:
		return fmt.Errorf("pastry: b must be 1, 2, 4, or 8 (got %d)", b)
	}
}
