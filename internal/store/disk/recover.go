package disk

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"webcache/internal/cache"
	"webcache/internal/invariant"
	"webcache/internal/trace"
)

// recover rebuilds the store's state from cfg.Dir: it opens every
// segment file, replays the journal's valid prefix, validates each
// surviving entry against the segment extents, re-seeds the
// replacement policy in journal order, and positions the journal
// write offset at the end of the valid prefix (overwriting any torn
// tail).  The active segment after recovery is always a fresh one —
// old segments are never appended to, so their journaled extents stay
// immutable.
func (d *Store) recover() error {
	// Open every segment file; its stat size bounds the valid extent
	// (journaled bytes never exceed it, orphaned tails inside it are
	// dead bytes).
	paths, err := filepath.Glob(filepath.Join(d.dir, "seg-*.log"))
	if err != nil {
		return err
	}
	for _, p := range paths {
		var id uint32
		if _, err := fmt.Sscanf(filepath.Base(p), "seg-%d.log", &id); err != nil {
			continue // foreign file; leave it alone
		}
		f, err := os.OpenFile(p, os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return err
		}
		d.segs[id] = &segment{id: id, f: f, size: st.Size()}
	}

	// Replay the journal: puts supersede earlier puts of the same key,
	// deletes drop it.  seqs preserves insertion order so the policy
	// is re-seeded oldest-first (evictions at a shrunk capacity then
	// fall on the oldest entries, matching what the policy would have
	// done).
	liveJnl := make(map[uint64]journalEntry)
	seqs := make(map[uint64]int64)
	var seq int64
	jnlPath := filepath.Join(d.dir, JournalName)
	valid, err := replayJournalFile(jnlPath, func(e journalEntry) {
		seq++
		switch e.op {
		case opPut:
			liveJnl[e.key] = e
			seqs[e.key] = seq
		case opDelete:
			delete(liveJnl, e.key)
			delete(seqs, e.key)
		}
	})
	if err != nil {
		return err
	}

	// Validate and seed, in insertion order.
	keys := make([]uint64, 0, len(liveJnl))
	for k := range liveJnl {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return seqs[keys[i]] < seqs[keys[j]] })
	for _, k := range keys {
		e := liveJnl[k]
		s := d.segs[e.seg]
		if s == nil || e.off+uint64(e.rlen) > uint64(s.size) ||
			e.size == 0 || int(e.rlen) < recordLen(len(e.hexKey), int(e.size)) {
			// Compacted-away segment or a superseded extent: the entry
			// lost a race with its own supersession at crash time.
			continue
		}
		key := trace.ObjectID(e.key)
		for _, ev := range d.policy.Add(cache.Entry{Obj: key, Size: e.size, Cost: e.cost}) {
			// Capacity shrank between runs: the oldest entries spill.
			if old, ok := d.idx[ev.Obj]; ok {
				delete(d.idx, ev.Obj)
				if sg := d.segs[old.seg]; sg != nil {
					sg.dead += int64(old.rlen)
				}
			}
		}
		if !d.policy.Contains(key) {
			continue
		}
		d.idx[key] = indexEntry{seg: e.seg, off: e.off, rlen: e.rlen, size: e.size, cost: e.cost}
	}

	// Dead-byte accounting: everything in a segment not referenced by
	// the final index is dead (orphaned records from crashed batches,
	// superseded versions, deleted objects).
	liveBytes := make(map[uint32]int64)
	for _, e := range d.idx {
		liveBytes[e.seg] += int64(e.rlen)
	}
	for id, s := range d.segs {
		s.dead = s.size - liveBytes[id]
	}

	// Record what survived, in insertion order, for directory
	// re-registration.
	for _, k := range keys {
		if _, ok := d.idx[trace.ObjectID(k)]; ok {
			d.recoveredHex = append(d.recoveredHex, liveJnl[k].hexKey)
		}
	}

	// Open the journal for appending at the end of its valid prefix —
	// or checkpoint it first if it has accumulated far more entries
	// than the live set.
	if seq > checkpointSlack*int64(len(d.idx))+checkpointFloor {
		hexOf := make(map[uint64]string, len(liveJnl))
		for k, e := range liveJnl {
			hexOf[k] = e.hexKey
		}
		if err := d.checkpointJournal(jnlPath, hexOf); err != nil {
			return err
		}
	} else {
		f, err := os.OpenFile(jnlPath, os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		d.journal = f
		d.jnlSize = valid
		// Journal the replay's drops (invalid extents, capacity
		// evictions) so an immediate re-replay agrees with the index —
		// the crash-consistency invariant CheckInvariants enforces.
		var drops []journalEntry
		for k := range liveJnl {
			if _, ok := d.idx[trace.ObjectID(k)]; !ok {
				drops = append(drops, journalEntry{op: opDelete, key: k})
			}
		}
		d.appendJournalLocked(drops, true)
	}

	// Never append to recovered segments: the next write opens a fresh
	// one.  (active stays nil until the first batch.)
	d.active = nil
	return nil
}

// checkpointJournal rewrites the journal to exactly the live index
// (write journal.new, fsync, rename over the old journal, fsync the
// directory) and leaves it open for appending.
func (d *Store) checkpointJournal(jnlPath string, hexOf map[uint64]string) error {
	var buf []byte
	// Deterministic order keeps checkpoints reproducible in tests.
	keys := make([]uint64, 0, len(d.idx))
	for k := range d.idx {
		keys = append(keys, uint64(k))
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		e := d.idx[trace.ObjectID(k)]
		buf = appendJournalEntry(buf, journalEntry{
			op: opPut, key: k, seg: e.seg, off: e.off, rlen: e.rlen,
			size: e.size, cost: e.cost, hexKey: hexOf[k],
		})
	}
	tmp := jnlPath + ".new"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := os.Rename(tmp, jnlPath); err != nil {
		f.Close()
		return err
	}
	if dir, err := os.Open(d.dir); err == nil {
		dir.Sync() // make the rename durable; best-effort
		dir.Close()
	}
	d.journal = f
	d.jnlSize = int64(len(buf))
	return nil
}

// snapshotForCheck captures the in-memory side of the agreement check
// under lock: the index, the segment extents, and the policy
// accounting.  Callers hold batchMu (and not mu).
func (d *Store) snapshotForCheck() (mem []invariant.DiskEntry, segs []invariant.DiskSegment, used, capacity uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	mem = make([]invariant.DiskEntry, 0, len(d.idx))
	for key, e := range d.idx {
		mem = append(mem, invariant.DiskEntry{
			Key: uint64(key), Seg: e.seg, Off: e.off, RLen: e.rlen, Size: e.size,
		})
	}
	segs = make([]invariant.DiskSegment, 0, len(d.segs))
	for _, s := range d.segs {
		segs = append(segs, invariant.DiskSegment{ID: s.id, Size: s.size})
	}
	return mem, segs, d.policy.Used(), d.capacity
}

// CheckInvariants runs the memory-index ↔ disk-log agreement check:
// it re-replays the on-disk journal through an independent reader and
// compares the resulting live set against the in-memory index, the
// segment extents, and the policy accounting.  batchMu excludes
// in-flight batches, so the two views must agree exactly.
func (d *Store) CheckInvariants(c *invariant.Checker) {
	if !c.Enabled() {
		return
	}
	d.batchMu.Lock()
	defer d.batchMu.Unlock()
	mem, segs, used, capacity := d.snapshotForCheck()

	liveJnl := make(map[uint64]journalEntry)
	_, err := replayJournalFile(filepath.Join(d.dir, JournalName), func(e journalEntry) {
		switch e.op {
		case opPut:
			liveJnl[e.key] = e
		case opDelete:
			delete(liveJnl, e.key)
		}
	})
	if err != nil {
		// Unreadable journal with a live index is itself a violation;
		// surface it through the same channel.
		liveJnl = nil
	}
	journal := make([]invariant.DiskEntry, 0, len(liveJnl))
	for k, e := range liveJnl {
		journal = append(journal, invariant.DiskEntry{
			Key: k, Seg: e.seg, Off: e.off, RLen: e.rlen, Size: e.size,
		})
	}
	c.CheckDiskAgreement(d.label, mem, journal, segs, used, capacity)
}
