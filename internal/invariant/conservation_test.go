package invariant

import (
	"testing"

	"webcache/internal/cache"
	"webcache/internal/p2p"
	"webcache/internal/trace"
)

func newTestCluster(t *testing.T, clients int) *p2p.Cluster {
	t.Helper()
	cl, err := p2p.NewCluster(p2p.Config{
		NumClients:        clients,
		PerClientCapacity: 16,
		Seed:              7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// driveCluster stores objs into cl through the accountant, exactly as
// the Hier-GD engine does with its pass-down receipts.
func driveCluster(t *testing.T, cl *p2p.Cluster, acct *ClusterAccountant, objs int) {
	t.Helper()
	for i := 0; i < objs; i++ {
		e := cache.Entry{Obj: trace.ObjectID(i), Size: uint32(1 + i%5), Cost: 1}
		r, err := cl.StoreEvicted(e, i%cl.NumClients(), true)
		if err != nil {
			t.Fatal(err)
		}
		acct.RecordStore(r)
	}
}

func TestClusterAccountantCleanRun(t *testing.T) {
	chk := New(nil)
	cl := newTestCluster(t, 8)
	acct := NewClusterAccountant(chk, "test")

	driveCluster(t, cl, acct, 200)
	for i := 0; i < 300; i++ {
		obj := trace.ObjectID(i % 250)
		lr, err := cl.Lookup(obj, i%8)
		if err != nil {
			t.Fatal(err)
		}
		acct.RecordLookup(obj, &lr)
	}
	acct.Reconcile(cl)
	if err := chk.Err(); err != nil {
		t.Fatalf("violations on a correct cluster: %v", err)
	}
	if chk.Checks() == 0 {
		t.Fatal("no checks ran")
	}
}

func TestClusterAccountantFailureAccounting(t *testing.T) {
	chk := New(nil)
	cl := newTestCluster(t, 8)
	acct := NewClusterAccountant(chk, "test")

	driveCluster(t, cl, acct, 120)
	lost, err := cl.FailClient(3)
	if err != nil {
		t.Fatal(err)
	}
	acct.RecordFailure(lost)
	acct.Reconcile(cl)
	if err := chk.Err(); err != nil {
		t.Fatalf("violations after an accounted failure: %v", err)
	}
}

func TestClusterAccountantCatchesUnreportedLoss(t *testing.T) {
	chk := New(nil)
	cl := newTestCluster(t, 8)
	acct := NewClusterAccountant(chk, "test")

	driveCluster(t, cl, acct, 120)
	// Fail a client but swallow the loss report: the ledger now holds
	// objects the cluster lost, which Reconcile must notice.
	if _, err := cl.FailClient(3); err != nil {
		t.Fatal(err)
	}
	acct.Reconcile(cl)
	if chk.ViolationCount() == 0 {
		t.Fatal("unreported object loss went unnoticed")
	}
	seen := map[string]bool{}
	for _, v := range chk.Violations() {
		seen[v.Rule] = true
	}
	if !seen["population"] && !seen["resident-missing"] {
		t.Fatalf("expected population/resident-missing violations, got %v", chk.Violations())
	}
}

func TestClusterAccountantLenientSkipsGroundTruth(t *testing.T) {
	chk := New(nil)
	cl := newTestCluster(t, 8)
	acct := NewClusterAccountant(chk, "test")
	acct.Lenient()

	driveCluster(t, cl, acct, 120)
	// Unreported loss is tolerated in lenient mode…
	if _, err := cl.FailClient(3); err != nil {
		t.Fatal(err)
	}
	acct.Reconcile(cl)
	if err := chk.Err(); err != nil {
		t.Fatalf("lenient mode still checked ground truth: %v", err)
	}
	// …but the ledger identity is not: corrupt a counter and reconcile.
	acct.stores += 3
	acct.Reconcile(cl)
	if chk.ViolationCount() == 0 {
		t.Fatal("broken conservation identity went unnoticed in lenient mode")
	}
}

func TestClusterAccountantGhostHit(t *testing.T) {
	chk := New(nil)
	cl := newTestCluster(t, 4)
	acct := NewClusterAccountant(chk, "test")

	// Store directly, bypassing the accountant: a later hit is a ghost.
	e := cache.Entry{Obj: 5, Size: 2, Cost: 1}
	if _, err := cl.StoreEvicted(e, 0, true); err != nil {
		t.Fatal(err)
	}
	lr, err := cl.Lookup(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !lr.Found {
		t.Fatal("setup: object not found")
	}
	acct.RecordLookup(5, &lr)
	seen := false
	for _, v := range chk.Violations() {
		if v.Rule == "ghost-hit" {
			seen = true
		}
	}
	if !seen {
		t.Fatalf("expected a ghost-hit violation, got %v", chk.Violations())
	}
}
