package invariant

import (
	"webcache/internal/p2p"
	"webcache/internal/trace"
)

// ClusterAccountant is the P2P conservation oracle.  It watches the
// receipt stream a proxy sees from its client cluster — store receipts,
// eviction notices, lookup outcomes, failure loss reports — and
// maintains its own resident-set ledger.  The conservation law it
// enforces is the one the proxy's directory consistency (§4.3) rests
// on:
//
//	stores − evictions − lost-on-failure == resident objects
//
// Reconcile compares the ledger against the cluster's ground truth.
//
// One event is not covered by receipts and forces lenient mode, where
// only the ledger-internal identity is checked: JoinClient handoffs may
// silently drop objects.  Callers flag it via Lenient (the simulator
// does this when ReplaceFailed is configured).
type ClusterAccountant struct {
	chk   *Checker
	label string

	resident map[trace.ObjectID]struct{}
	stores   int64
	evicts   int64
	lost     int64

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

// remove takes obj off the ledger, asserting (in strict mode) that the
// cluster is not reporting the removal of an object it never stored.
func (a *ClusterAccountant) remove(obj trace.ObjectID, rule, how string) bool {
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
}

// RecordFailure feeds a FailClient loss report into the ledger.  Like
// every removal, it checks for phantoms only in strict mode.
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
	a.chk.assertf(a.stores-a.evicts-a.lost == int64(len(a.resident)), "p2p", "conservation",
		"cluster %s: stores %d − evictions %d − lost %d != %d resident",
		a.label, a.stores, a.evicts, a.lost, len(a.resident))
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
