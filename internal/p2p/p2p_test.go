package p2p

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"webcache/internal/cache"
	"webcache/internal/trace"
)

func testCluster(t testing.TB, clients int, perCap uint64) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{
		NumClients:        clients,
		PerClientCapacity: perCap,
		Seed:              42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func entry(obj trace.ObjectID) cache.Entry { return cache.Entry{Obj: obj, Size: 1, Cost: 1.0} }

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(Config{NumClients: 0, PerClientCapacity: 1}); err == nil {
		t.Error("zero clients accepted")
	}
	if _, err := NewCluster(Config{NumClients: 5, PerClientCapacity: 0}); err == nil {
		t.Error("zero capacity accepted")
	}
	c := testCluster(t, 10, 5)
	if c.NumClients() != 10 || c.LiveClients() != 10 {
		t.Errorf("clients = %d/%d", c.NumClients(), c.LiveClients())
	}
	if c.Capacity() != 50 {
		t.Errorf("capacity = %d, want 50", c.Capacity())
	}
}

func TestStoreThenLookup(t *testing.T) {
	c := testCluster(t, 20, 10)
	r, err := c.StoreEvicted(entry(1), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if !r.StoredOK || r.Stored != 1 || len(r.Evicted) != 0 {
		t.Fatalf("receipt = %+v", r)
	}
	lr, err := c.Lookup(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !lr.Found {
		t.Fatalf("lookup = %+v", lr)
	}
	lr, err = c.Lookup(999, 3)
	if err != nil {
		t.Fatal(err)
	}
	if lr.Found {
		t.Error("found object never stored")
	}
}

func TestStoreDuplicateRefreshes(t *testing.T) {
	c := testCluster(t, 10, 10)
	c.StoreEvicted(entry(1), 0, true)
	before := c.TotalCached()
	r, err := c.StoreEvicted(entry(1), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if !r.StoredOK {
		t.Error("duplicate store rejected")
	}
	if c.TotalCached() != before {
		t.Errorf("duplicate store changed population %d -> %d", before, c.TotalCached())
	}
}

func TestStoreOversizeRejected(t *testing.T) {
	c := testCluster(t, 10, 4)
	r, err := c.StoreEvicted(cache.Entry{Obj: 1, Size: 100, Cost: 1}, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.StoredOK {
		t.Error("oversize object stored")
	}
	if c.Contains(1) {
		t.Error("oversize object present")
	}
}

func TestDiversionUsesLeafSpace(t *testing.T) {
	// Tiny per-client capacity so destination caches fill fast; the
	// cluster as a whole must keep absorbing via diversion.
	c := testCluster(t, 30, 2)
	stored := 0
	for obj := trace.ObjectID(0); obj < 50; obj++ {
		r, err := c.StoreEvicted(entry(obj), int(obj)%30, true)
		if err != nil {
			t.Fatal(err)
		}
		if r.StoredOK {
			stored++
		}
	}
	st := c.Stats()
	if st.Diversions == 0 {
		t.Error("no diversions occurred despite full destinations")
	}
	if stored != 50 {
		t.Errorf("stored %d of 50", stored)
	}
	// Aggregate capacity 60 > 50: nothing should have been evicted.
	if st.Evictions != 0 {
		t.Errorf("evictions = %d with free aggregate space", st.Evictions)
	}
	if c.TotalCached() != 50 {
		t.Errorf("population = %d, want 50", c.TotalCached())
	}
}

func TestLookupThroughPointer(t *testing.T) {
	c := testCluster(t, 30, 2)
	var diverted []trace.ObjectID
	for obj := trace.ObjectID(0); obj < 50; obj++ {
		r, _ := c.StoreEvicted(entry(obj), 0, true)
		if r.Diverted {
			diverted = append(diverted, obj)
		}
	}
	if len(diverted) == 0 {
		t.Fatal("no diverted objects to test")
	}
	hitViaPointer := false
	for _, obj := range diverted {
		lr, err := c.Lookup(obj, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !lr.Found {
			t.Fatalf("diverted object %d not found", obj)
		}
		if lr.ViaPointer {
			hitViaPointer = true
		}
	}
	if !hitViaPointer {
		t.Error("no pointer-mediated hit observed")
	}
	if c.Stats().PointerHits == 0 {
		t.Error("stats missed pointer hits")
	}
}

func TestReplacementEvictsAndReports(t *testing.T) {
	c := testCluster(t, 5, 2) // aggregate capacity 10
	var evicted int
	for obj := trace.ObjectID(0); obj < 40; obj++ {
		r, err := c.StoreEvicted(entry(obj), 0, true)
		if err != nil {
			t.Fatal(err)
		}
		evicted += len(r.Evicted)
	}
	if evicted == 0 {
		t.Fatal("no evictions despite 4x oversubscription")
	}
	if used := c.UsedCapacity(); used > c.Capacity() {
		t.Errorf("used %d > capacity %d", used, c.Capacity())
	}
	if c.Stats().Replacements == 0 {
		t.Error("replacement counter zero")
	}
}

func TestPiggybackAccounting(t *testing.T) {
	c := testCluster(t, 10, 5)
	c.StoreEvicted(entry(1), 0, true)
	withPB := c.Stats()
	if withPB.PiggybackSave != 1 {
		t.Errorf("piggyback save = %d, want 1", withPB.PiggybackSave)
	}
	before := c.Stats().Messages
	r, _ := c.StoreEvicted(entry(2), 0, false)
	after := c.Stats().Messages
	// Non-piggybacked store carries the dedicated-transfer message.
	if after-before != r.Messages {
		t.Errorf("message accounting inconsistent: delta %d vs receipt %d", after-before, r.Messages)
	}
	if r.Messages < 2 {
		t.Errorf("dedicated store should cost >= 2 messages, got %d", r.Messages)
	}
}

func TestPushFetch(t *testing.T) {
	c := testCluster(t, 20, 10)
	c.StoreEvicted(entry(7), 0, true)
	before := c.Stats().Messages
	lr, err := c.PushFetch(7)
	if err != nil {
		t.Fatal(err)
	}
	if !lr.Found {
		t.Fatal("push fetch missed stored object")
	}
	if c.Stats().Pushes != 1 {
		t.Errorf("pushes = %d", c.Stats().Pushes)
	}
	if c.Stats().Messages-before < 3 {
		t.Error("push should cost route + push-up + forward messages")
	}
	// Push for an absent object finds nothing and pushes nothing.
	lr, _ = c.PushFetch(1234)
	if lr.Found || c.Stats().Pushes != 1 {
		t.Error("push fetch of absent object misbehaved")
	}
}

func TestFailClientLosesObjects(t *testing.T) {
	c := testCluster(t, 20, 10)
	for obj := trace.ObjectID(0); obj < 100; obj++ {
		c.StoreEvicted(entry(obj), 0, true)
	}
	popBefore := c.TotalCached()
	var lostTotal int
	for i := 0; i < 5; i++ {
		// What the node held: its own cache and the objects it
		// diverted to live neighbours.
		node := c.nodes.Get(c.clientIDs[i])
		held := node.cache.Objects()
		for obj := range node.pointerTo {
			held = append(held, obj)
		}
		lost, err := c.FailClient(i)
		if err != nil {
			t.Fatal(err)
		}
		got := slices.Clone(lost)
		slices.Sort(got)
		slices.Sort(held)
		if !slices.Equal(got, held) {
			t.Errorf("client %d: FailClient lost %v, the node held %v", i, got, held)
		}
		lostTotal += len(lost)
		for _, obj := range lost {
			if c.Contains(obj) {
				t.Errorf("lost object %d still present", obj)
			}
		}
	}
	if c.LiveClients() != 15 {
		t.Errorf("live = %d", c.LiveClients())
	}
	if got := c.TotalCached(); got != popBefore-lostTotal {
		t.Errorf("population %d != %d - %d", got, popBefore, lostTotal)
	}
	// Lookups still work for surviving objects.
	found := 0
	for obj := trace.ObjectID(0); obj < 100; obj++ {
		if lr, err := c.Lookup(obj, 10); err == nil && lr.Found {
			found++
		}
	}
	if found == 0 {
		t.Error("no objects survive 25% failures")
	}
	if _, err := c.FailClient(0); err == nil {
		t.Error("double fail succeeded")
	}
	if _, err := c.FailClient(999); err == nil {
		t.Error("out-of-range fail succeeded")
	}
}

func TestStartNodeFallsBackWhenClientDead(t *testing.T) {
	c := testCluster(t, 5, 10)
	c.StoreEvicted(entry(1), 0, true)
	c.FailClient(2)
	// Lookup from the dead client must still route via another node.
	if _, err := c.Lookup(1, 2); err != nil {
		t.Fatalf("lookup from dead client: %v", err)
	}
}

func TestAllClientsDead(t *testing.T) {
	c := testCluster(t, 3, 5)
	for i := 0; i < 3; i++ {
		c.FailClient(i)
	}
	if _, err := c.Lookup(1, 0); err != ErrNoLiveClients {
		t.Errorf("err = %v, want ErrNoLiveClients", err)
	}
	if _, err := c.StoreEvicted(entry(1), 0, true); err != ErrNoLiveClients {
		t.Errorf("store err = %v, want ErrNoLiveClients", err)
	}
}

func TestJoinClientHandoff(t *testing.T) {
	c := testCluster(t, 10, 50)
	for obj := trace.ObjectID(0); obj < 200; obj++ {
		c.StoreEvicted(entry(obj), 0, true)
	}
	popBefore := c.TotalCached()
	idx, err := c.JoinClient()
	if err != nil {
		t.Fatal(err)
	}
	if c.IsDead(idx) || c.LiveClients() != 11 {
		t.Fatalf("join bookkeeping wrong: dead=%v live=%d", c.IsDead(idx), c.LiveClients())
	}
	if got := c.TotalCached(); got > popBefore || got < popBefore-5 {
		t.Errorf("population changed unexpectedly: %d -> %d", popBefore, got)
	}
	// Every stored object must remain findable after the handoff.
	missing := 0
	for obj := trace.ObjectID(0); obj < 200; obj++ {
		if !c.Contains(obj) {
			continue // evicted during join-overflow; acceptable
		}
		lr, err := c.Lookup(obj, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !lr.Found {
			missing++
		}
	}
	if missing > 0 {
		t.Errorf("%d present objects unroutable after join", missing)
	}
}

func TestLookupRefreshesGreedyDual(t *testing.T) {
	// After heavy lookups of one object, it should survive pressure
	// that evicts untouched peers stored at the same node.
	c := testCluster(t, 4, 3)
	for obj := trace.ObjectID(0); obj < 200; obj++ {
		c.StoreEvicted(entry(obj), 0, true)
		if c.Contains(5) {
			c.Lookup(5, 0) // keep 5 hot
		}
	}
	// Not a strict guarantee (5 may never have been stored or may be
	// unlucky), but with refreshes it should be present far more often
	// than not across seeds; assert the mechanism at least ran.
	if c.Stats().LookupHits == 0 {
		t.Skip("object 5 never stored under this seed")
	}
}

// Property: aggregate used capacity never exceeds aggregate capacity,
// and receipts never report an eviction of an object that is still
// reachable.
func TestPropClusterInvariants(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := NewCluster(Config{NumClients: 8, PerClientCapacity: 3, Seed: seed})
		if err != nil {
			return false
		}
		for _, op := range ops {
			obj := trace.ObjectID(rng.Intn(60))
			switch op % 3 {
			case 0, 1:
				r, err := c.StoreEvicted(entry(obj), rng.Intn(8), op%2 == 0)
				if err != nil {
					return false
				}
				for _, ev := range r.Evicted {
					if ev != obj && c.Contains(ev) {
						return false // reported evicted but still present
					}
				}
			case 2:
				if _, err := c.Lookup(obj, rng.Intn(8)); err != nil {
					return false
				}
			}
			if c.UsedCapacity() > c.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: everything successfully stored (and not subsequently
// evicted or lost) is findable by Lookup.
func TestPropStoredImpliesFindable(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		c, err := NewCluster(Config{NumClients: 12, PerClientCapacity: 100, Seed: seed})
		if err != nil {
			return false
		}
		count := int(n)%100 + 1
		for obj := trace.ObjectID(0); obj < trace.ObjectID(count); obj++ {
			r, err := c.StoreEvicted(entry(obj), int(obj)%12, true)
			if err != nil || !r.StoredOK {
				return false
			}
		}
		for obj := trace.ObjectID(0); obj < trace.ObjectID(count); obj++ {
			lr, err := c.Lookup(obj, 0)
			if err != nil || !lr.Found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// LookupOrStore is Lookup followed, on a miss, by StoreEvicted with
// piggybacking, in one route: two identical clusters, one driven each
// way through the same requests while clients crash and join, must
// report the same results and the same stats after every request, and
// leave the start-node rng in the same state.  Requests from dead
// clients and from indices past the cluster take the fallback start,
// which both sides draw twice on a miss.
func TestLookupOrStoreMatchesLookupThenStore(t *testing.T) {
	pair, one := testCluster(t, 40, 3), testCluster(t, 40, 3)
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 4000; step++ {
		if step%150 == 149 {
			victim := rng.Intn(pair.NumClients())
			if !pair.IsDead(victim) && pair.LiveClients() > 2 {
				if _, err := pair.FailClient(victim); err != nil {
					t.Fatal(err)
				}
				if _, err := one.FailClient(victim); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := pair.JoinClient(); err != nil {
				t.Fatal(err)
			}
			if _, err := one.JoinClient(); err != nil {
				t.Fatal(err)
			}
		}
		e := entry(trace.ObjectID(rng.Intn(400)))
		from := rng.Intn(pair.NumClients() + 60)
		lr, err := pair.Lookup(e.Obj, from)
		if err != nil {
			t.Fatal(err)
		}
		var r Receipt
		if !lr.Found {
			if r, err = pair.StoreEvicted(e, from, true); err != nil {
				t.Fatal(err)
			}
		}
		lr2, r2, err := one.LookupOrStore(e, from)
		if err != nil {
			t.Fatal(err)
		}
		if lr.Found != lr2.Found || lr.Hops != lr2.Hops || lr.Messages != lr2.Messages || lr.ViaPointer != lr2.ViaPointer {
			t.Fatalf("step %d: lookup of %d from %d: %+v, then-store side %+v", step, e.Obj, from, lr2, lr)
		}
		if !lr.Found && (r.StoredOK != r2.StoredOK || r.Diverted != r2.Diverted || r.Hops != r2.Hops ||
			r.Messages != r2.Messages || !slices.Equal(r.Evicted, r2.Evicted)) {
			t.Fatalf("step %d: store of %d from %d: %+v, then-store side %+v", step, e.Obj, from, r2, r)
		}
		if pair.Stats() != one.Stats() {
			t.Fatalf("step %d: stats %+v, then-store side %+v", step, one.Stats(), pair.Stats())
		}
	}
	for i := 0; i < 20; i++ {
		a, _ := pair.startNode(-1)
		b, _ := one.startNode(-1)
		if a != b {
			t.Fatalf("fallback start %d: %v, then-store side %v: the rng streams parted", i, b, a)
		}
	}
}
