package disk

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"webcache/internal/cache"
	"webcache/internal/invariant"
	"webcache/internal/trace"
)

// Config sizes a disk Store.
type Config struct {
	// Dir is the store directory (created if absent).  One Store owns
	// a directory exclusively.
	Dir string
	// CapacityBytes bounds the live (indexed) object bytes; greedy-dual,
	// as in the memory tier, evicts past it.  Dead log bytes on top of
	// it are bounded by compaction.
	CapacityBytes uint64
	// SegmentBytes rotates the active log segment past this size
	// (0 = 64 MiB).  Sealed segments are the compaction unit.
	SegmentBytes int64
	// QueueDepth bounds the write-behind queue (0 = 1024).  A full
	// queue applies backpressure to Put — enqueueing blocks — rather
	// than dropping, so an acknowledged store is never silently lost.
	QueueDepth int
	// BatchRecords caps how many queued objects one fsync batch
	// absorbs (0 = 256).
	BatchRecords int
	// Check, when non-nil, enables CheckInvariants (the memory-index ↔
	// disk-log agreement check), which also runs once after recovery.
	Check *invariant.Checker
	// Label distinguishes multiple stores in violation details
	// (default "disk").
	Label string
}

const (
	defaultSegmentBytes = 64 << 20
	defaultQueueDepth   = 1024
	defaultBatch        = 256
	// compactDeadRatio triggers compaction of a sealed segment once
	// this fraction of its bytes is dead.
	compactDeadRatio = 0.5
	// checkpointSlack rewrites the journal at open once it holds this
	// many times more entries than the live index (plus a floor so
	// tiny stores never bother).
	checkpointSlack = 4
	checkpointFloor = 64
)

// indexEntry locates one live object in the log.
type indexEntry struct {
	seg  uint32
	off  uint64
	rlen uint32 // full record length
	size uint32 // body length
	cost float64
}

// segment is one log file's bookkeeping.  size and dead are guarded by
// Store.mu; the file handle is immutable until the segment is
// compacted away.
type segment struct {
	id   uint32
	f    *os.File
	size int64 // valid extent (journaled bytes; torn tails get overwritten)
	dead int64 // bytes belonging to superseded or deleted records
}

// persistReq is one write-behind queue element: an object to persist,
// or a flush token (done non-nil) releasing a Sync waiter.
type persistReq struct {
	key  trace.ObjectID
	obj  Object
	done chan struct{} // flush token only
}

// Store is the persistent disk tier.
type Store struct {
	dir      string
	capacity uint64
	segTgt   int64
	label    string
	check    *invariant.Checker

	// mu guards the index, the policy, segment bookkeeping, and
	// journal state.  File writes and fsyncs happen outside it (the
	// batchMu holder is the only appender); Get uses ReadAt and needs
	// mu only for the index lookup.
	mu      sync.Mutex
	idx     map[trace.ObjectID]indexEntry
	policy  *cache.GreedyDual
	segs    map[uint32]*segment
	active  *segment
	journal *os.File
	jnlSize int64 // valid journal extent (next append offset)

	// batchMu serializes write-behind batches (and compaction) against
	// CheckInvariants, so the checker never observes the window
	// between a journal fsync and the index apply.  It also makes the
	// worker the single log appender.
	batchMu sync.Mutex

	queue     chan persistReq
	enqueueMu sync.RWMutex // guards queue close vs. concurrent sends
	closed    bool
	workerWG  sync.WaitGroup

	// Recovery results (immutable after Open).
	recoveredHex []string
}

// Open creates or recovers a disk store in cfg.Dir: it replays the
// index journal (tolerating a torn tail), validates every surviving
// entry against the segment files on disk, re-seeds the replacement
// policy, and starts the write-behind worker.  The recovered contents
// are reachable immediately via Get and listed by RecoveredHexKeys for
// directory re-registration.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("disk: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	label := cfg.Label
	if label == "" {
		label = "disk"
	}
	segTgt := cfg.SegmentBytes
	if segTgt <= 0 {
		segTgt = defaultSegmentBytes
	}
	queueDepth := cfg.QueueDepth
	if queueDepth <= 0 {
		queueDepth = defaultQueueDepth
	}
	d := &Store{
		dir:      cfg.Dir,
		capacity: cfg.CapacityBytes,
		segTgt:   segTgt,
		label:    label,
		check:    cfg.Check,
		idx:      make(map[trace.ObjectID]indexEntry),
		policy:   cache.NewGreedyDual(cfg.CapacityBytes),
		segs:     make(map[uint32]*segment),
		queue:    make(chan persistReq, queueDepth),
	}
	if err := d.recover(); err != nil {
		d.closeFiles()
		return nil, err
	}
	if cfg.Check.Enabled() {
		d.CheckInvariants(cfg.Check)
	}
	batch := cfg.BatchRecords
	if batch <= 0 {
		batch = defaultBatch
	}
	d.workerWG.Add(1)
	go d.worker(batch)
	return d, nil
}

// segPath names segment id's file.
func (d *Store) segPath(id uint32) string {
	return filepath.Join(d.dir, fmt.Sprintf("seg-%08d.log", id))
}

// Put enqueues an object for asynchronous persistence (write-behind).
// It blocks only when the bounded queue is full — backpressure, never
// a silent drop — and returns false for objects the tier cannot hold
// (empty, oversized body, over-long key) or after Close.  Durability
// lags the call: use Sync for a barrier, or rely on Close at shutdown.
func (d *Store) Put(key trace.ObjectID, obj Object) bool {
	if len(obj.Body) == 0 || uint64(len(obj.Body)) > d.capacity ||
		len(obj.Body) > MaxBody || len(obj.HexKey) > MaxHexKey {
		return false
	}
	return d.enqueue(persistReq{key: key, obj: obj})
}

// Sync blocks until every Put enqueued before it is durable (log and
// journal fsynced).  It returns false if the store is closed.
func (d *Store) Sync() bool {
	done := make(chan struct{})
	if !d.enqueue(persistReq{done: done}) {
		return false
	}
	<-done
	return true
}

// enqueue sends one request, timing queue backpressure.  It returns
// false once the store is closed.
func (d *Store) enqueue(req persistReq) bool {
	d.enqueueMu.RLock()
	defer d.enqueueMu.RUnlock()
	if d.closed {
		return false
	}
	select {
	case d.queue <- req:
		return true
	default:
	}
	d.queue <- req
	return true
}

// Get reads an object from the log, verifying its checksum.  The
// policy's replacement metadata is refreshed on a hit.  A corrupt
// record is self-healing: the entry is dropped (and journaled as a
// delete) and the call reports a miss, so the tier degrades to a cache
// miss instead of serving torn bytes.
func (d *Store) Get(key trace.ObjectID) (Object, bool) {
	// Two attempts: a read can race compaction relocating the record
	// it targets, in which case the entry has moved and a re-lookup
	// succeeds against the new location.
	for attempt := 0; attempt < 2; attempt++ {
		d.mu.Lock()
		e, ok := d.idx[key]
		var f *os.File
		if ok {
			d.policy.Access(key)
			if s := d.segs[e.seg]; s != nil {
				f = s.f
			}
		}
		d.mu.Unlock()
		if !ok {
			return Object{}, false
		}
		if f == nil {
			continue // segment compacted between lookup and read
		}
		buf := make([]byte, e.rlen)
		if _, err := f.ReadAt(buf, int64(e.off)); err != nil {
			if d.entryMoved(key, e) {
				continue
			}
			d.dropCorrupt(key, e)
			return Object{}, false
		}
		obj, recKey, _, err := decodeRecord(buf)
		if err != nil || recKey != uint64(key) {
			if d.entryMoved(key, e) {
				continue
			}
			d.dropCorrupt(key, e)
			return Object{}, false
		}
		return obj, true
	}
	return Object{}, false
}

// Contains reports whether key is indexed (no IO, no metadata touch).
func (d *Store) Contains(key trace.ObjectID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.idx[key]
	return ok
}

// entryMoved reports whether key's index entry no longer matches e
// (relocated or removed since the caller's lookup).
func (d *Store) entryMoved(key trace.ObjectID, e indexEntry) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	cur, ok := d.idx[key]
	return !ok || cur != e
}

// dropCorrupt removes an entry whose record failed to read or verify.
func (d *Store) dropCorrupt(key trace.ObjectID, e indexEntry) {
	d.mu.Lock()
	if cur, ok := d.idx[key]; ok && cur == e {
		delete(d.idx, key)
		d.policy.Remove(key)
		if s := d.segs[e.seg]; s != nil {
			s.dead += int64(e.rlen)
		}
		// The delete is journaled unsynced: if it is lost to a crash,
		// recovery resurfaces the entry and the next Get re-drops it.
		d.appendJournalLocked([]journalEntry{{op: opDelete, key: uint64(key)}}, false)
	}
	d.mu.Unlock()
}

// Keys snapshots the indexed keys, in no particular order.
func (d *Store) Keys() []trace.ObjectID {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]trace.ObjectID, 0, len(d.idx))
	for key := range d.idx {
		out = append(out, key)
	}
	return out
}

// Len reports the live object count.
func (d *Store) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.idx)
}

// Used reports the live object bytes (policy-accounted).
func (d *Store) Used() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.policy.Used()
}

// Capacity is the configured live-byte budget.
func (d *Store) Capacity() uint64 { return d.capacity }

// QueueDepth reports the write-behind queue's current occupancy.
func (d *Store) QueueDepth() int { return len(d.queue) }

// Recovered reports how many objects the boot replay re-indexed.
func (d *Store) Recovered() int { return len(d.recoveredHex) }

// RecoveredHexKeys lists the hex objectIds the boot replay recovered,
// for re-registering with a lookup directory.
func (d *Store) RecoveredHexKeys() []string {
	out := make([]string, len(d.recoveredHex))
	copy(out, d.recoveredHex)
	return out
}

// worker is the write-behind goroutine: it drains the queue into
// batches and runs the durability protocol (package comment) per
// batch.
func (d *Store) worker(batchMax int) {
	defer d.workerWG.Done()
	for {
		req, ok := <-d.queue
		if !ok {
			return
		}
		batch := make([]persistReq, 0, batchMax)
		var flushes []chan struct{}
		add := func(r persistReq) {
			if r.done != nil {
				flushes = append(flushes, r.done)
			} else {
				batch = append(batch, r)
			}
		}
		add(req)
	fill:
		for len(batch) < batchMax {
			select {
			case r, ok := <-d.queue:
				if !ok {
					break fill
				}
				add(r)
			default:
				break fill
			}
		}
		if len(batch) > 0 {
			d.persistBatch(batch)
			d.Compact()
		}
		for _, ch := range flushes {
			close(ch)
		}
	}
}

// persistBatch runs one durability cycle over the batch.
func (d *Store) persistBatch(batch []persistReq) {
	d.batchMu.Lock()
	defer d.batchMu.Unlock()

	// Plan under mu: collapse duplicate keys within the batch (last
	// write wins — the policy would panic on a double Add) and skip
	// objects already resident at the same size, refreshing their
	// replacement metadata instead of rewriting identical bytes.
	var plan []persistReq
	planned := make(map[trace.ObjectID]int)
	d.mu.Lock()
	for _, r := range batch {
		if i, ok := planned[r.key]; ok {
			plan[i] = r
			continue
		}
		if e, ok := d.idx[r.key]; ok && int(e.size) == len(r.obj.Body) {
			d.policy.Access(r.key)
			continue
		}
		planned[r.key] = len(plan)
		plan = append(plan, r)
	}
	d.mu.Unlock()
	if len(plan) == 0 {
		return
	}

	// Append all records to the active segment and fsync it.  The
	// batchMu holder is the only writer, so seg.size is stable here;
	// WriteAt (not O_APPEND) means a previously torn tail is simply
	// overwritten.
	seg := d.activeSegment()
	if seg == nil {
		return
	}
	var encoded []byte
	offs := make([]int64, len(plan))
	base := seg.size
	off := base
	for i, r := range plan {
		offs[i] = off
		start := len(encoded)
		encoded = appendRecord(encoded, uint64(r.key), r.obj)
		off += int64(len(encoded) - start)
	}
	if !d.writeAndSync(seg.f, encoded, base) {
		// Nothing was journaled, so the index never references the
		// torn bytes; the tier keeps serving what it has.
		return
	}

	// Apply under mu: retire superseded locations, evict per policy,
	// journal the batch (fsynced), and publish the index entries.
	d.mu.Lock()
	seg.size = off
	var entries []journalEntry
	for i, r := range plan {
		if cur, ok := d.idx[r.key]; ok {
			// Present at a different size: the old location dies now.
			if s := d.segs[cur.seg]; s != nil {
				s.dead += int64(cur.rlen)
			}
			d.policy.Remove(r.key)
		}
		for _, ev := range d.policy.Add(cache.Entry{Obj: r.key, Size: uint32(len(r.obj.Body)), Cost: r.obj.Cost}) {
			if old, ok := d.idx[ev.Obj]; ok {
				delete(d.idx, ev.Obj)
				if s := d.segs[old.seg]; s != nil {
					s.dead += int64(old.rlen)
				}
			}
			entries = append(entries, journalEntry{op: opDelete, key: uint64(ev.Obj)})
		}
		rlen := uint32(recordLen(len(r.obj.HexKey), len(r.obj.Body)))
		if !d.policy.Contains(r.key) {
			// The policy rejected the entry (cannot happen for bodies
			// within capacity, but stay defensive): the record is dead
			// on arrival.
			seg.dead += int64(rlen)
			continue
		}
		e := indexEntry{
			seg: seg.id, off: uint64(offs[i]), rlen: rlen,
			size: uint32(len(r.obj.Body)), cost: r.obj.Cost,
		}
		d.idx[r.key] = e
		entries = append(entries, journalEntry{
			op: opPut, key: uint64(r.key), seg: e.seg, off: e.off,
			rlen: e.rlen, size: e.size, cost: e.cost, hexKey: r.obj.HexKey,
		})
	}
	d.appendJournalLocked(entries, true)
	d.maybeRotateLocked()
	d.mu.Unlock()
}

// writeAndSync writes buf at off and fsyncs, reporting whether both
// succeeded.
func (d *Store) writeAndSync(f *os.File, buf []byte, off int64) bool {
	if _, err := f.WriteAt(buf, off); err != nil {
		return false
	}
	return f.Sync() == nil
}

// activeSegment returns the active segment, creating the first one on
// demand.  Only batchMu holders (or Open, before the worker starts)
// call it; nil means the segment file could not be created.
func (d *Store) activeSegment() *segment {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.active == nil {
		d.openSegmentLocked(d.nextSegIDLocked())
	}
	return d.active
}

// nextSegIDLocked picks the lowest unused segment id.
func (d *Store) nextSegIDLocked() uint32 {
	var next uint32
	for id := range d.segs {
		if id >= next {
			next = id + 1
		}
	}
	return next
}

// openSegmentLocked creates segment id and makes it active.
func (d *Store) openSegmentLocked(id uint32) error {
	f, err := os.OpenFile(d.segPath(id), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	s := &segment{id: id, f: f}
	d.segs[id] = s
	d.active = s
	return nil
}

// maybeRotateLocked seals the active segment once it exceeds the
// target size.  On a rotation failure the old segment simply keeps
// growing — correctness is unaffected.
func (d *Store) maybeRotateLocked() {
	if d.active != nil && d.active.size >= d.segTgt {
		d.openSegmentLocked(d.nextSegIDLocked())
	}
}

// appendJournalLocked encodes entries, appends them to the journal at
// the tracked offset, and (when sync is set) fsyncs it.  Callers hold
// d.mu.
func (d *Store) appendJournalLocked(entries []journalEntry, sync bool) {
	if len(entries) == 0 || d.journal == nil {
		return
	}
	var buf []byte
	for _, e := range entries {
		buf = appendJournalEntry(buf, e)
	}
	if _, err := d.journal.WriteAt(buf, d.jnlSize); err != nil {
		return
	}
	if sync {
		d.journal.Sync()
	}
	d.jnlSize += int64(len(buf))
}

// Close drains the write-behind queue (every accepted Put becomes
// durable), stops the worker, and closes the files.  Safe to call
// more than once; further Puts return false.
func (d *Store) Close() error {
	d.enqueueMu.Lock()
	if d.closed {
		d.enqueueMu.Unlock()
		return nil
	}
	d.closed = true
	close(d.queue)
	d.enqueueMu.Unlock()
	// The worker drains the channel before observing the close, so
	// every accepted Put is persisted before it exits.
	d.workerWG.Wait()
	d.closeFiles()
	return nil
}

// closeFiles closes every open file handle.
func (d *Store) closeFiles() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, s := range d.segs {
		if s.f != nil {
			s.f.Close()
		}
	}
	if d.journal != nil {
		d.journal.Close()
		d.journal = nil
	}
}

// compactRound scans sealed segments for ones past the dead-byte
// threshold and compacts them: live records are re-appended
// to the active segment (new journal entries supersede the old
// locations), then the segment file is deleted.  Crash-safe at every
// point — relocations are journaled before the file is unlinked, and
// recovery drops entries pointing at missing segments.  Callers hold
// batchMu.
func (d *Store) compactRound() {
	for {
		d.mu.Lock()
		var victim *segment
		for _, s := range d.segs {
			if d.active != nil && s.id == d.active.id {
				continue
			}
			if s.size > 0 && float64(s.dead)/float64(s.size) >= compactDeadRatio {
				victim = s
				break
			}
		}
		if victim == nil {
			d.mu.Unlock()
			return
		}
		// Collect the victim's live entries in offset order (re-append
		// preserves bodies bit-for-bit; order only helps readahead).
		type liveRec struct {
			key trace.ObjectID
			e   indexEntry
		}
		var live []liveRec
		for key, e := range d.idx {
			if e.seg == victim.id {
				live = append(live, liveRec{key, e})
			}
		}
		sort.Slice(live, func(i, j int) bool { return live[i].e.off < live[j].e.off })
		f := victim.f
		d.mu.Unlock()

		for _, lr := range live {
			buf := make([]byte, lr.e.rlen)
			if _, err := f.ReadAt(buf, int64(lr.e.off)); err != nil {
				d.dropCorrupt(lr.key, lr.e)
				continue
			}
			obj, recKey, _, err := decodeRecord(buf)
			if err != nil || recKey != uint64(lr.key) {
				d.dropCorrupt(lr.key, lr.e)
				continue
			}
			if !d.relocate(lr.key, lr.e, obj) {
				return // append failure: retry next round
			}
		}

		d.mu.Lock()
		// Everything live has moved (or was dropped as corrupt); an
		// entry still pointing here would mean a relocation raced a
		// concurrent rewrite — verify before unlinking.
		for _, e := range d.idx {
			if e.seg == victim.id {
				d.mu.Unlock()
				return
			}
		}
		delete(d.segs, victim.id)
		d.mu.Unlock()
		f.Close()
		os.Remove(d.segPath(victim.id))
	}
}

// relocate re-appends one live record to the active segment and
// journals the new location (its own mini-batch, fsynced).  Returns
// false on an append failure.  Callers hold batchMu.
func (d *Store) relocate(key trace.ObjectID, old indexEntry, obj Object) bool {
	seg := d.activeSegment()
	if seg == nil {
		return false
	}
	encoded := appendRecord(nil, uint64(key), obj)
	base := seg.size
	if !d.writeAndSync(seg.f, encoded, base) {
		return false
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	seg.size = base + int64(len(encoded))
	cur, ok := d.idx[key]
	if !ok || cur != old {
		// The object was dropped mid-relocation; the new copy is dead
		// on arrival.
		seg.dead += int64(len(encoded))
		d.maybeRotateLocked()
		return true
	}
	e := indexEntry{
		seg: seg.id, off: uint64(base), rlen: uint32(len(encoded)),
		size: old.size, cost: old.cost,
	}
	d.idx[key] = e
	d.appendJournalLocked([]journalEntry{{
		op: opPut, key: uint64(key), seg: e.seg, off: e.off,
		rlen: e.rlen, size: e.size, cost: e.cost, hexKey: obj.HexKey,
	}}, true)
	d.maybeRotateLocked()
	return true
}

// Compact runs a compaction scan (the worker triggers it after every
// batch; tests and maintenance paths may force it).
func (d *Store) Compact() {
	d.batchMu.Lock()
	defer d.batchMu.Unlock()
	d.compactRound()
}
