// Package disk is the live store's persistent second tier: an
// append-only object log (fixed-layout records with per-record
// CRC-32C checksums, rotated into bounded segments) indexed by an
// append-only journal, written behind a bounded queue with batched
// fsync, and recovered on boot by replaying the journal — so a
// hiergdd restart no longer cold-starts the federation.
//
// Durability protocol, in order, per write-behind batch:
//
//  1. append the batch's object records to the active log segment;
//  2. fsync the segment (one batched fsync, not one per record);
//  3. append the batch's index entries to the journal;
//  4. fsync the journal;
//  5. apply the entries to the in-memory index and release Sync
//     waiters.
//
// A journaled entry therefore always points at durable log bytes: a
// crash between 2 and 4 leaves an orphaned log record (dead bytes,
// reclaimed by compaction) but never a journal entry referencing torn
// data.  Recovery replays the journal alone — no body reads — which
// is what makes the recovery rate (`disk.replay_obj_per_s` in the
// repo benchmark) a journal-decode rate rather than a disk-bandwidth
// number; record checksums are
// verified lazily on every Get.
//
// Like the rest of the repo, observability is zero-cost when
// disabled: a nil *obs.Registry registers nothing, and the invariant
// hook (CheckInvariants) is driven by the caller.
package disk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Log record layout (little-endian), one per stored object:
//
//	u32 magic      recMagic
//	u8  hexLen     length of the hex objectId (≤ MaxHexKey)
//	u64 key        folded 64-bit policy key
//	f64 cost       greedy-dual fetch cost
//	u32 bodyLen    object body length (1 ≤ bodyLen ≤ MaxBody)
//	hexLen bytes   hex objectId
//	bodyLen bytes  object body
//	u32 crc        CRC-32C over everything above
const (
	recMagic     = 0x574C4F47 // "WLOG"
	recHeaderLen = 4 + 1 + 8 + 8 + 4
	recTrailLen  = 4
)

// MaxHexKey bounds the stored hex objectId (the wire key is 32 hex
// digits; the bound leaves slack without letting a corrupt length
// field drive allocation).
const MaxHexKey = 64

// MaxBody bounds a record body, matching the daemons'
// http.MaxBytesReader limit on object uploads.  A decoded length
// beyond it is corruption, not a big object.
const MaxBody = 64 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors the codecs distinguish: a truncated tail (clean crash point,
// tolerated by recovery) versus corrupt bytes (checksum or bound
// violation).
var (
	ErrTruncated = errors.New("disk: truncated record")
	ErrCorrupt   = errors.New("disk: corrupt record")
)

// Object is one persisted cache object, mirroring store.Object (the
// store package imports this one, so the type is re-declared here).
type Object struct {
	HexKey string
	Body   []byte
	Cost   float64
}

// recordLen is the full on-disk length of a record with the given
// key/body lengths.
func recordLen(hexLen, bodyLen int) int {
	return recHeaderLen + hexLen + bodyLen + recTrailLen
}

// appendRecord encodes one object record onto buf and returns the
// extended slice.  Callers enforce the MaxHexKey/MaxBody bounds (the
// store's Put path rejects violations before they reach the log).
func appendRecord(buf []byte, key uint64, obj Object) []byte {
	start := len(buf)
	var hdr [recHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], recMagic)
	hdr[4] = byte(len(obj.HexKey))
	binary.LittleEndian.PutUint64(hdr[5:], key)
	binary.LittleEndian.PutUint64(hdr[13:], math.Float64bits(obj.Cost))
	binary.LittleEndian.PutUint32(hdr[21:], uint32(len(obj.Body)))
	buf = append(buf, hdr[:]...)
	buf = append(buf, obj.HexKey...)
	buf = append(buf, obj.Body...)
	crc := crc32.Checksum(buf[start:], castagnoli)
	var trail [recTrailLen]byte
	binary.LittleEndian.PutUint32(trail[:], crc)
	return append(buf, trail[:]...)
}

// decodeRecord parses one record from the front of b.  It returns the
// decoded object, its folded key, and the record's full length.
// ErrTruncated means b ends before the record does (the only legal
// way for a log to end); ErrCorrupt covers a bad magic, an
// out-of-bounds length field (checked before any allocation — the
// untrusted-length guard the fuzz target exercises), or a checksum
// mismatch.
func decodeRecord(b []byte) (obj Object, key uint64, n int, err error) {
	if len(b) < recHeaderLen {
		return Object{}, 0, 0, ErrTruncated
	}
	if binary.LittleEndian.Uint32(b[0:]) != recMagic {
		return Object{}, 0, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	hexLen := int(b[4])
	key = binary.LittleEndian.Uint64(b[5:])
	cost := math.Float64frombits(binary.LittleEndian.Uint64(b[13:]))
	bodyLen := int(binary.LittleEndian.Uint32(b[21:]))
	if hexLen > MaxHexKey || bodyLen < 1 || bodyLen > MaxBody {
		return Object{}, 0, 0, fmt.Errorf("%w: lengths hex=%d body=%d", ErrCorrupt, hexLen, bodyLen)
	}
	n = recordLen(hexLen, bodyLen)
	if len(b) < n {
		return Object{}, 0, 0, ErrTruncated
	}
	want := binary.LittleEndian.Uint32(b[n-recTrailLen:])
	if crc32.Checksum(b[:n-recTrailLen], castagnoli) != want {
		return Object{}, 0, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	body := make([]byte, bodyLen)
	copy(body, b[recHeaderLen+hexLen:])
	obj = Object{
		HexKey: string(b[recHeaderLen : recHeaderLen+hexLen]),
		Body:   body,
		Cost:   cost,
	}
	return obj, key, n, nil
}
