package invariant

import (
	"webcache/internal/p2p"
	"webcache/internal/trace"
)

// ClusterAccountant is the P2P conservation oracle.  It watches the
// receipt stream a proxy sees from its client cluster — store receipts,
// eviction notices, lookup displacements, failure loss reports — and
// maintains its own resident-set ledger.  The conservation law it
// enforces is the one the proxy's directory consistency (§4.3) rests
// on:
//
//	stores − evictions − lost-on-failure == resident objects
//
// Reconcile compares the ledger against the cluster's ground truth.
//
// Two events are not covered by receipts and force lenient mode, where
// only the ledger-internal identity is checked: JoinClient handoffs may
// silently drop objects, and hot-object replication adds copies without
// receipts.  Callers flag those via Lenient (the simulator does this
// when ReplaceFailed or ReplicateHotAfter is configured).
type ClusterAccountant struct {
	chk   *Checker
	label string

	resident map[trace.ObjectID]struct{}
	stores   int64
	evicts   int64
	lost     int64

	// Replica ledger (fleet k-way replication).  copies counts the
	// extra copies of each object beyond the one `resident` tracks;
	// replicas is the running total of replica placements.  With
	// replicas the conservation law generalizes to
	//
	//	stores + replicas − evictions − lost == total copies
	//
	// where total copies = len(resident) + Σ copies.
	copies   map[trace.ObjectID]int64
	replicas int64

	strict bool
}

// NewClusterAccountant creates an accountant recording into chk.  With
// a nil Checker it returns nil, and every method on a nil accountant is
// a no-op, so call sites stay unconditional.
func NewClusterAccountant(chk *Checker, label string) *ClusterAccountant {
	if chk == nil {
		return nil
	}
	return &ClusterAccountant{
		chk:      chk,
		label:    label,
		resident: make(map[trace.ObjectID]struct{}),
		copies:   make(map[trace.ObjectID]int64),
		strict:   true,
	}
}

// Lenient downgrades the oracle to ledger-identity checks only; see the
// type comment for when receipts stop covering every population change.
func (a *ClusterAccountant) Lenient() {
	if a == nil {
		return
	}
	a.strict = false
}

// Strict reports whether ground-truth reconciliation is still on.
func (a *ClusterAccountant) Strict() bool { return a != nil && a.strict }

// remove takes one copy of obj off the ledger — a surplus replica
// copy first, the primary residency last — asserting (in strict mode)
// that the cluster is not reporting the removal of an object it never
// stored.
func (a *ClusterAccountant) remove(obj trace.ObjectID, rule, how string) bool {
	if a.copies[obj] > 0 {
		a.copies[obj]--
		if a.copies[obj] == 0 {
			delete(a.copies, obj)
		}
		return true
	}
	_, ok := a.resident[obj]
	if a.strict {
		a.chk.assertf(ok, "p2p", rule,
			"cluster %s: %s object %d which the ledger does not hold", a.label, how, obj)
	}
	delete(a.resident, obj)
	return ok
}

// RecordStore feeds a StoreEvicted receipt into the ledger.
func (a *ClusterAccountant) RecordStore(r p2p.Receipt) {
	if a == nil {
		return
	}
	if !r.StoredOK {
		// A rejected store (object larger than a client cache, or the
		// cluster fully failed) must not displace anything.
		a.chk.assertf(len(r.Evicted) == 0, "p2p", "reject-evicts",
			"cluster %s: rejected store of %d still evicted %d objects", a.label, r.Stored, len(r.Evicted))
		return
	}
	if _, dup := a.resident[r.Stored]; !dup {
		// Refreshes of already-resident objects do not grow the
		// population; only first stores count.
		a.resident[r.Stored] = struct{}{}
		a.stores++
	}
	for _, gone := range r.Evicted {
		a.chk.assertf(gone != r.Stored, "p2p", "self-evict",
			"cluster %s: store receipt for %d evicts the object being stored", a.label, r.Stored)
		if a.remove(gone, "phantom-evict", "evicted") {
			a.evicts++
		}
	}
}

// RecordReplica feeds a k-way replica placement into the ledger: one
// extra copy of obj now exists somewhere in the fleet, displacing the
// receipted evictions.  In strict mode the object must already be on
// the ledger — a replica of an object never stored is a ghost copy.
func (a *ClusterAccountant) RecordReplica(obj trace.ObjectID, evicted []trace.ObjectID) {
	if a == nil {
		return
	}
	if a.strict {
		_, resident := a.resident[obj]
		a.chk.assertf(resident || a.copies[obj] > 0, "p2p", "ghost-replica",
			"cluster %s: replica of %d which the ledger does not hold", a.label, obj)
	}
	a.copies[obj]++
	a.replicas++
	for _, gone := range evicted {
		if a.remove(gone, "phantom-evict", "replica-evicted") {
			a.evicts++
		}
	}
}

// RecordLookup feeds a Lookup (or PushFetch) outcome for obj into the
// ledger.  In strict mode the hit/miss answer must match the ledger
// exactly: a hit on an unknown object is a ghost, a miss on a resident
// object means the cluster lost it without a receipt.
func (a *ClusterAccountant) RecordLookup(obj trace.ObjectID, lr *p2p.LookupResult) {
	if a == nil {
		return
	}
	_, resident := a.resident[obj]
	if a.strict {
		a.chk.assertf(!lr.Found || resident, "p2p", "ghost-hit",
			"cluster %s: lookup found %d which was never stored", a.label, obj)
		a.chk.assertf(lr.Found || !resident, "p2p", "lost-object",
			"cluster %s: lookup missed %d which the ledger holds", a.label, obj)
	}
	for _, gone := range lr.Displaced {
		if a.remove(gone, "phantom-evict", "displaced") {
			a.evicts++
		}
	}
}

// RecordFailure feeds a FailClient loss report into the ledger.  With
// replication the failed node may have held copies of objects still
// resident elsewhere, so phantom checks only run in strict mode.
func (a *ClusterAccountant) RecordFailure(lostObjs []trace.ObjectID) {
	if a == nil {
		return
	}
	for _, obj := range lostObjs {
		if a.remove(obj, "phantom-loss", "lost") {
			a.lost++
		}
	}
}

// Reconcile checks the conservation law and, in strict mode, the ledger
// against the cluster's ground-truth holdings.
func (a *ClusterAccountant) Reconcile(cl *p2p.Cluster) {
	if a == nil {
		return
	}
	a.chk.assertf(a.stores+a.replicas-a.evicts-a.lost == a.totalCopies(), "p2p", "conservation",
		"cluster %s: stores %d + replicas %d − evictions %d − lost %d != %d total copies",
		a.label, a.stores, a.replicas, a.evicts, a.lost, a.totalCopies())
	if !a.strict || cl == nil {
		return
	}
	a.chk.assertf(cl.TotalCached() == len(a.resident), "p2p", "population",
		"cluster %s: cluster holds %d objects, ledger holds %d", a.label, cl.TotalCached(), len(a.resident))
	for obj := range a.resident {
		a.chk.assertf(cl.Contains(obj), "p2p", "resident-missing",
			"cluster %s: ledger holds %d but no client cache does", a.label, obj)
	}
}

// totalCopies is the ledger's copy population: one per resident
// object plus the surplus replica copies.
func (a *ClusterAccountant) totalCopies() int64 {
	n := int64(len(a.resident))
	for _, c := range a.copies {
		n += c
	}
	return n
}

// ReconcileCopies checks the replica ledger against ground truth: a
// map from object to the number of copies actually resident across
// the fleet's caches.  Runs the conservation identity first, then (in
// strict mode) the per-object copy counts both ways.  This is the
// replica-aware analogue of Reconcile's population check — used by
// consumers whose ground truth is a fleet of caches rather than one
// p2p.Cluster.
func (a *ClusterAccountant) ReconcileCopies(ground map[trace.ObjectID]int64) {
	if a == nil {
		return
	}
	a.Reconcile(nil)
	if !a.strict {
		return
	}
	for obj, want := range ground {
		have := a.copies[obj]
		if _, ok := a.resident[obj]; ok {
			have++
		}
		a.chk.assertf(have == want, "p2p", "replica-count",
			"cluster %s: object %d has %d copies resident, ledger says %d", a.label, obj, want, have)
	}
	for obj := range a.resident {
		_, ok := ground[obj]
		a.chk.assertf(ok, "p2p", "resident-missing",
			"cluster %s: ledger holds %d but no cache does", a.label, obj)
	}
	for obj := range a.copies {
		_, ok := ground[obj]
		a.chk.assertf(ok, "p2p", "resident-missing",
			"cluster %s: ledger holds replica copies of %d but no cache does", a.label, obj)
	}
}

// Resident returns the ledger's resident objects (test helper).
func (a *ClusterAccountant) Resident() []trace.ObjectID {
	if a == nil {
		return nil
	}
	out := make([]trace.ObjectID, 0, len(a.resident))
	for obj := range a.resident {
		out = append(out, obj)
	}
	return out
}
