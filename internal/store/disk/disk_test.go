package disk

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"webcache/internal/invariant"
	"webcache/internal/trace"
)

// testBody derives a deterministic body from a key, so recovery tests
// can verify content integrity without carrying state across
// processes.
func testBody(key uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(key>>uint((i%8)*8)) ^ byte(i)
	}
	return b
}

func hexKey(key uint64) string { return fmt.Sprintf("%032x", key) }

func testObj(key uint64, n int) Object {
	return Object{HexKey: hexKey(key), Body: testBody(key, n), Cost: 1}
}

func mustOpen(t *testing.T, cfg Config) *Store {
	t.Helper()
	d, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestRecordRoundTrip(t *testing.T) {
	obj := Object{HexKey: "00ff", Body: []byte("hello world"), Cost: 2.5}
	buf := appendRecord(nil, 42, obj)
	got, key, n, err := decodeRecord(buf)
	if err != nil || key != 42 || n != len(buf) {
		t.Fatalf("decode: key=%d n=%d err=%v", key, n, err)
	}
	if got.HexKey != obj.HexKey || !bytes.Equal(got.Body, obj.Body) || got.Cost != obj.Cost {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	// Truncation at every prefix is ErrTruncated, never a panic or an
	// over-allocation.
	for i := 0; i < len(buf); i++ {
		if _, _, _, err := decodeRecord(buf[:i]); err == nil {
			t.Fatalf("truncated record at %d decoded", i)
		}
	}
	// A flipped byte is ErrCorrupt.
	bad := append([]byte(nil), buf...)
	bad[recHeaderLen] ^= 0xFF
	if _, _, _, err := decodeRecord(bad); err == nil {
		t.Fatal("corrupt record decoded")
	}
}

func TestJournalRoundTrip(t *testing.T) {
	entries := []journalEntry{
		{op: opPut, key: 7, seg: 1, off: 128, rlen: 64, size: 20, cost: 3, hexKey: hexKey(7)},
		{op: opDelete, key: 9},
	}
	var buf []byte
	for _, e := range entries {
		buf = appendJournalEntry(buf, e)
	}
	var got []journalEntry
	valid, err := replayJournal(bytes.NewReader(buf), func(e journalEntry) { got = append(got, e) })
	if err != nil || valid != int64(len(buf)) {
		t.Fatalf("replay: valid=%d err=%v", valid, err)
	}
	if len(got) != 2 || got[0] != entries[0] || got[1] != entries[1] {
		t.Fatalf("replay mismatch: %+v", got)
	}
	// A torn tail stops the replay cleanly at the valid prefix.
	torn := append(append([]byte(nil), buf...), buf[:jnlHeaderLen+3]...)
	got = nil
	valid, err = replayJournal(bytes.NewReader(torn), func(e journalEntry) { got = append(got, e) })
	if err != nil || valid != int64(len(buf)) || len(got) != 2 {
		t.Fatalf("torn tail: valid=%d n=%d err=%v", valid, len(got), err)
	}
}

func TestPutGetSync(t *testing.T) {
	d := mustOpen(t, Config{Dir: t.TempDir(), CapacityBytes: 1 << 20})
	for k := uint64(1); k <= 50; k++ {
		if !d.Put(trace.ObjectID(k), testObj(k, 100)) {
			t.Fatalf("Put %d rejected", k)
		}
	}
	if !d.Sync() {
		t.Fatal("Sync failed")
	}
	if d.Len() != 50 {
		t.Fatalf("Len = %d, want 50", d.Len())
	}
	for k := uint64(1); k <= 50; k++ {
		obj, ok := d.Get(trace.ObjectID(k))
		if !ok || !bytes.Equal(obj.Body, testBody(k, 100)) || obj.HexKey != hexKey(k) {
			t.Fatalf("Get %d: ok=%v obj=%+v", k, ok, obj)
		}
	}
	if _, ok := d.Get(999); ok {
		t.Fatal("absent key hit")
	}
	// Rejections: empty, oversized, over-long key.
	if d.Put(60, Object{HexKey: "aa"}) {
		t.Fatal("empty body accepted")
	}
	if d.Put(61, Object{HexKey: "aa", Body: make([]byte, 2<<20)}) {
		t.Fatal("over-capacity body accepted")
	}
	if d.Put(62, Object{HexKey: string(make([]byte, MaxHexKey+1)), Body: []byte("x")}) {
		t.Fatal("over-long key accepted")
	}
}

func TestRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Config{Dir: dir, CapacityBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 200; k++ {
		d.Put(trace.ObjectID(k), testObj(k, 64))
	}
	// Rewrite a few at a different size and delete-by-corruption none:
	// the journal's last word must win.
	for k := uint64(1); k <= 10; k++ {
		d.Put(trace.ObjectID(k), testObj(k, 128))
	}
	d.Close()

	check := invariant.New(nil)
	d2 := mustOpen(t, Config{Dir: dir, CapacityBytes: 1 << 20, Check: check})
	if err := check.Err(); err != nil {
		t.Fatalf("post-recovery invariants: %v", err)
	}
	if d2.Recovered() != 200 || d2.Len() != 200 {
		t.Fatalf("recovered %d / len %d, want 200", d2.Recovered(), d2.Len())
	}
	for k := uint64(1); k <= 200; k++ {
		want := 64
		if k <= 10 {
			want = 128
		}
		obj, ok := d2.Get(trace.ObjectID(k))
		if !ok || !bytes.Equal(obj.Body, testBody(k, want)) {
			t.Fatalf("recovered Get %d: ok=%v len=%d want %d", k, ok, len(obj.Body), want)
		}
	}
	hexes := d2.RecoveredHexKeys()
	if len(hexes) != 200 {
		t.Fatalf("RecoveredHexKeys = %d", len(hexes))
	}
	seen := make(map[string]bool, len(hexes))
	for _, h := range hexes {
		seen[h] = true
	}
	for k := uint64(1); k <= 200; k++ {
		if !seen[hexKey(k)] {
			t.Fatalf("hex key %s not recovered", hexKey(k))
		}
	}
}

func TestRecoveryToleratesTornTails(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Config{Dir: dir, CapacityBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 20; k++ {
		d.Put(trace.ObjectID(k), testObj(k, 64))
	}
	d.Close()

	// Simulate a crash mid-journal-append: garbage after the valid
	// prefix.
	jnl := filepath.Join(dir, JournalName)
	f, err := os.OpenFile(jnl, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01})
	f.Close()

	d2 := mustOpen(t, Config{Dir: dir, CapacityBytes: 1 << 20})
	if d2.Len() != 20 {
		t.Fatalf("Len after torn tail = %d, want 20", d2.Len())
	}
	// New writes overwrite the torn bytes; a third open sees both
	// generations.
	d2.Put(100, testObj(100, 32))
	d2.Close()
	d3 := mustOpen(t, Config{Dir: dir, CapacityBytes: 1 << 20})
	if d3.Len() != 21 {
		t.Fatalf("Len after write-over = %d, want 21", d3.Len())
	}
	if obj, ok := d3.Get(100); !ok || !bytes.Equal(obj.Body, testBody(100, 32)) {
		t.Fatal("post-torn-tail write lost")
	}
}

func TestEvictionAndInvariants(t *testing.T) {
	check := invariant.New(nil)
	d := mustOpen(t, Config{Dir: t.TempDir(), CapacityBytes: 4096, Check: check})
	for k := uint64(1); k <= 100; k++ {
		d.Put(trace.ObjectID(k), testObj(k, 100))
	}
	d.Sync()
	if used := d.Used(); used > 4096 {
		t.Fatalf("Used %d exceeds capacity", used)
	}
	if d.Len() >= 100 {
		t.Fatal("no evictions at 100×100B into 4KiB")
	}
	d.CheckInvariants(check)
	if err := check.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestCompaction(t *testing.T) {
	// Small segments so rewrites strand dead bytes across several
	// sealed files.
	d := mustOpen(t, Config{Dir: t.TempDir(), CapacityBytes: 1 << 20, SegmentBytes: 4096})
	var written int64
	for round := 0; round < 10; round++ {
		for k := uint64(1); k <= 20; k++ {
			obj := testObj(k, 100+round) // size changes force rewrites
			written += int64(recordLen(len(obj.HexKey), len(obj.Body)))
			d.Put(trace.ObjectID(k), obj)
		}
		d.Sync()
	}
	d.Compact()
	var logBytes int64
	d.mu.Lock()
	for _, s := range d.segs {
		logBytes += s.size
	}
	d.mu.Unlock()
	if logBytes >= written {
		// The worker already compacts per batch; with 10 rewrite rounds
		// over 4KiB segments some sealed segment must have crossed the
		// dead threshold and been reclaimed.
		t.Fatalf("no compaction ran: %d log bytes for %d written", logBytes, written)
	}
	for k := uint64(1); k <= 20; k++ {
		obj, ok := d.Get(trace.ObjectID(k))
		if !ok || !bytes.Equal(obj.Body, testBody(k, 109)) {
			t.Fatalf("post-compaction Get %d: ok=%v", k, ok)
		}
	}
	// And the compacted state must survive a restart.
	dir := d.dir
	d.Close()
	d2 := mustOpen(t, Config{Dir: dir, CapacityBytes: 1 << 20, SegmentBytes: 4096})
	for k := uint64(1); k <= 20; k++ {
		obj, ok := d2.Get(trace.ObjectID(k))
		if !ok || !bytes.Equal(obj.Body, testBody(k, 109)) {
			t.Fatalf("post-restart Get %d: ok=%v", k, ok)
		}
	}
}

func TestCorruptRecordDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Config{Dir: dir, CapacityBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	d.Put(1, testObj(1, 256))
	d.Sync()

	// Flip a body byte on disk, under the store's feet.
	d.mu.Lock()
	e := d.idx[1]
	f := d.segs[e.seg].f
	d.mu.Unlock()
	if _, err := f.WriteAt([]byte{0xFF}, int64(e.off)+recHeaderLen+40); err != nil {
		t.Fatal(err)
	}

	if _, ok := d.Get(1); ok {
		t.Fatal("corrupt record served")
	}
	if d.Contains(1) {
		t.Fatal("corrupt entry not dropped")
	}
	d.Close()

	// The drop was journaled: recovery must not resurface the entry
	// (and even if the unsynced delete were lost, Get would re-drop).
	d2 := mustOpen(t, Config{Dir: dir, CapacityBytes: 1 << 20})
	if _, ok := d2.Get(1); ok {
		t.Fatal("corrupt record resurrected and served")
	}
}

func TestJournalCheckpoint(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Config{Dir: dir, CapacityBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Many rewrites of few keys: journal entries ≫ live set.
	for round := 0; round < 200; round++ {
		for k := uint64(1); k <= 5; k++ {
			d.Put(trace.ObjectID(k), testObj(k, 50+round%7))
		}
		d.Sync()
	}
	d.Close()
	before, err := os.Stat(filepath.Join(dir, JournalName))
	if err != nil {
		t.Fatal(err)
	}

	d2 := mustOpen(t, Config{Dir: dir, CapacityBytes: 1 << 20})
	after, err := os.Stat(filepath.Join(dir, JournalName))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("checkpoint did not shrink journal: %d -> %d", before.Size(), after.Size())
	}
	if d2.Len() != 5 {
		t.Fatalf("Len after checkpoint = %d", d2.Len())
	}
	// The checkpointed journal must itself recover.
	d2.Close()
	d3 := mustOpen(t, Config{Dir: dir, CapacityBytes: 1 << 20})
	if d3.Len() != 5 {
		t.Fatalf("Len after checkpoint recovery = %d", d3.Len())
	}
	for k := uint64(1); k <= 5; k++ {
		if _, ok := d3.Get(trace.ObjectID(k)); !ok {
			t.Fatalf("key %d lost across checkpoint", k)
		}
	}
}

func TestCloseDrainsQueue(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Config{Dir: dir, CapacityBytes: 1 << 20, QueueDepth: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 1000; k++ {
		if !d.Put(trace.ObjectID(k), testObj(k, 64)) {
			t.Fatalf("Put %d rejected", k)
		}
	}
	// No Sync: Close itself must drain the queue.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d.Sync() {
		t.Fatal("Sync succeeded after Close")
	}

	d2 := mustOpen(t, Config{Dir: dir, CapacityBytes: 1 << 20})
	if d2.Len() != 1000 {
		t.Fatalf("recovered %d of 1000 queued puts", d2.Len())
	}
}

func TestShrunkCapacityEvictsOnRecovery(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Config{Dir: dir, CapacityBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 100; k++ {
		d.Put(trace.ObjectID(k), testObj(k, 100))
	}
	d.Close()

	check := invariant.New(nil)
	d2 := mustOpen(t, Config{Dir: dir, CapacityBytes: 2048, Check: check})
	if err := check.Err(); err != nil {
		t.Fatal(err)
	}
	if used := d2.Used(); used > 2048 {
		t.Fatalf("Used %d exceeds shrunk capacity", used)
	}
	if d2.Len() == 0 || d2.Len() >= 100 {
		t.Fatalf("Len = %d after shrink", d2.Len())
	}
}
