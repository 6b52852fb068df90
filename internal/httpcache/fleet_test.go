package httpcache

import (
	"fmt"
	"net/http/httptest"
	"net/url"
	"os"
	"slices"
	"testing"
	"time"

	"webcache/internal/invariant"
	"webcache/internal/obs"
	"webcache/internal/wiretest"
)

// fleetRig deploys n fleet-enabled proxies (no client caches) over
// httptest servers with a shared origin.
type fleetRig struct {
	origin  *testOrigin
	proxies []*Proxy
	servers []*httptest.Server
	urls    []string
}

func newFleetRig(t *testing.T, n, replication, hotThreshold int, chk *invariant.Checker) *fleetRig {
	t.Helper()
	rig := &fleetRig{origin: newTestOrigin()}
	t.Cleanup(rig.origin.srv.Close)
	for i := 0; i < n; i++ {
		px := NewProxy(16 << 20)
		srv := httptest.NewServer(wiretest.StrictFraming(t, px.Handler()))
		t.Cleanup(srv.Close)
		rig.proxies = append(rig.proxies, px)
		rig.servers = append(rig.servers, srv)
		rig.urls = append(rig.urls, srv.URL)
	}
	for i, px := range rig.proxies {
		px.SetDefenses(Defenses{})
		if chk != nil {
			px.EnableAccounting(chk)
		}
		px.EnableFleet(FleetOptions{
			Self:         rig.urls[i],
			Members:      rig.urls,
			Replication:  replication,
			HotThreshold: hotThreshold,
		})
	}
	return rig
}

// fetchVia GETs objURL through the given front proxy.
func (rig *fleetRig) fetchVia(t *testing.T, front int, objURL string) (int, string) {
	t.Helper()
	return get(t, fmt.Sprintf("%s/fetch?url=%s", rig.urls[front], url.QueryEscape(objURL)))
}

// ownerIndex resolves which rig member owns objURL per member 0's ring.
func (rig *fleetRig) ownerIndex(t *testing.T, objURL string) int {
	t.Helper()
	owner, ok := rig.proxies[0].FleetRing().OwnerOf(fold(keyOf(objURL)))
	if !ok {
		t.Fatal("no fleet owner")
	}
	for i, u := range rig.urls {
		if u == owner {
			return i
		}
	}
	t.Fatalf("owner %q is not a rig member", owner)
	return -1
}

// otherIndex returns a member index not in the exclude set.
func otherIndex(n int, exclude ...int) int {
	for i := 0; i < n; i++ {
		out := true
		for _, e := range exclude {
			if i == e {
				out = false
			}
		}
		if out {
			return i
		}
	}
	return -1
}

// TestFleetRouting pins the inter-proxy hop: a miss at a non-owner
// routes to the key's owner instead of origin; the first fetch is an
// owner-side origin fill (reported TierOrigin, honest hit accounting),
// the second a remote cache hit — one origin fetch total, and the
// object resides only in the owner's partition.
func TestFleetRouting(t *testing.T) {
	rig := newFleetRig(t, 3, 1, 0, nil)
	objURL := rig.origin.srv.URL + "/fleet-routed"
	owner := rig.ownerIndex(t, objURL)
	front := otherIndex(3, owner)
	folded := fold(keyOf(objURL))

	status, tier := rig.fetchVia(t, front, objURL)
	if status != 200 || tier != TierOrigin {
		t.Fatalf("first fetch: status %d tier %q, want 200 %q", status, tier, TierOrigin)
	}
	status, tier = rig.fetchVia(t, front, objURL)
	if status != 200 || tier != TierRemoteProxy {
		t.Fatalf("second fetch: status %d tier %q, want 200 %q", status, tier, TierRemoteProxy)
	}
	if hits := rig.origin.hits.Load(); hits != 1 {
		t.Fatalf("origin hits = %d, want 1 (the owner's fill)", hits)
	}
	if !rig.proxies[owner].store.Contains(folded) {
		t.Fatal("owner does not hold the key")
	}
	if rig.proxies[front].store.Contains(folded) {
		t.Fatal("front cached a key it does not own — partitioning is leaking")
	}
	fs := rig.proxies[front].snapshotStats().Fleet
	if fs.Routed != 2 || fs.RoutedOrigin != 1 || fs.RoutedHits != 1 {
		t.Fatalf("front fleet stats = %+v, want routed 2 / origin 1 / hits 1", fs)
	}
	if hop := rig.proxies[owner].snapshotStats().Fleet.HopServes; hop != 2 {
		t.Fatalf("owner hop serves = %d, want 2", hop)
	}
}

// The hop tries every holder the breakers admit, not the first two:
// with replication 3 and the two least-loaded holders dead, the third
// serves, first its origin fill and then its cache hit, and the front
// keeps no copy.  The defenses are chaos.Hardened()'s (which imports
// this package); under them the parent raced the first two holders
// only and the front filled from origin itself.
func TestFleetHopTriesEveryHolder(t *testing.T) {
	rig := newFleetRig(t, 4, 3, 0, nil)
	for _, px := range rig.proxies {
		px.SetDefenses(Defenses{
			PeerTimeout:         75 * time.Millisecond,
			AdaptivePeerTimeout: true,
			VerifyEvery:         2,
			BreakerFailures:     3,
			BreakerCooldown:     500 * time.Millisecond,
		})
	}
	objURL := rig.origin.srv.URL + "/fleet-third-holder"
	folded := fold(keyOf(objURL))
	holders := rig.proxies[0].FleetRing().ReplicasOf(folded, 3)
	front := -1
	for i, u := range rig.urls {
		switch {
		case !slices.Contains(holders, u):
			front = i
		case u != holders[2]:
			rig.servers[i].Close() // idempotent: the rig's cleanup closes it again
		}
	}
	if len(holders) != 3 || front < 0 {
		t.Fatalf("holders %v of members %v", holders, rig.urls)
	}

	for i, want := range []string{TierOrigin, TierRemoteProxy} {
		if status, tier := rig.fetchVia(t, front, objURL); status != 200 || tier != want {
			t.Fatalf("fetch %d: status %d tier %q, want 200 %q", i, status, tier, want)
		}
	}
	if hits := rig.origin.hits.Load(); hits != 1 {
		t.Fatalf("origin hits = %d, want 1 (the third holder's fill)", hits)
	}
	if rig.proxies[front].store.Contains(folded) {
		t.Fatal("front cached a key it does not hold")
	}
	fs := rig.proxies[front].snapshotStats().Fleet
	if fs.Routed != 2 || fs.RoutedOrigin != 1 || fs.RoutedHits != 1 || fs.RouteFailed != 0 {
		t.Fatalf("front fleet stats = %+v, want routed 2 / origin 1 / hits 1 / failed 0", fs)
	}
}

// TestFleetReplicationAndAccounting pins k-way hot-object replication
// with the replica-aware conservation ledger attached: hammering a key
// at its owner crosses the hot threshold, the owner places a copy on
// the ring successor, reads from a third member fan out to one of the
// two holders, and every member's accountant reconciles clean (the
// live k >= 2 acceptance gate).
func TestFleetReplicationAndAccounting(t *testing.T) {
	chk := invariant.New(nil)
	rig := newFleetRig(t, 3, 2, 4, chk)
	objURL := rig.origin.srv.URL + "/fleet-hot"
	owner := rig.ownerIndex(t, objURL)
	folded := fold(keyOf(objURL))

	reps := rig.proxies[0].FleetRing().ReplicasOf(folded, 2)
	if len(reps) != 2 {
		t.Fatalf("replica set %v, want 2 members", reps)
	}
	var replica int
	for i, u := range rig.urls {
		if u == reps[1] {
			replica = i
		}
	}

	// Drive the key hot at its owner; replication is async, so poll.
	for i := 0; i < 12; i++ {
		if status, _ := rig.fetchVia(t, owner, objURL); status != 200 {
			t.Fatalf("fetch %d failed", i)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for !rig.proxies[replica].store.Contains(folded) {
		if time.Now().After(deadline) {
			t.Fatal("hot object never replicated to the ring successor")
		}
		time.Sleep(10 * time.Millisecond)
		rig.fetchVia(t, owner, objURL)
	}
	// The owner counts a replica out when its store call returns, which
	// is after the replica holds the object: wait for the counter too.
	for rig.proxies[owner].snapshotStats().Fleet.ReplicasOut == 0 {
		if time.Now().After(deadline) {
			t.Fatal("owner recorded no replicas out")
		}
		time.Sleep(time.Millisecond)
	}
	if in := rig.proxies[replica].snapshotStats().Fleet.ReplicasIn; in == 0 {
		t.Fatal("replica recorded no replicas in")
	}

	// A third member's read fans out to owner or replica — never origin.
	third := otherIndex(3, owner, replica)
	before := rig.origin.hits.Load()
	if status, tier := rig.fetchVia(t, third, objURL); status != 200 || tier != TierRemoteProxy {
		t.Fatalf("fan-out read: status %d tier %q, want 200 %q", status, tier, TierRemoteProxy)
	}
	if rig.origin.hits.Load() != before {
		t.Fatal("fan-out read hit origin despite two resident copies")
	}

	for _, px := range rig.proxies {
		px.ReconcileAccounting()
	}
	if v := chk.ViolationCount(); v != 0 {
		t.Fatalf("conservation violations with replication k=2: %d\n%v", v, chk.Violations())
	}
	if chk.Checks() == 0 {
		t.Fatal("accountant ran no checks")
	}
}

// TestFleetJoinLeaveRebalance is the live no-loss rebalance test: a
// joining member receives exactly the keys whose ownership moved to
// it, nothing already acknowledged is lost (refetching every key costs
// zero extra origin hits), and the member's drain on leave re-homes
// its partition the same way.
func TestFleetJoinLeaveRebalance(t *testing.T) {
	// Members 0 and 1 bootstrap the fleet; member 2 joins later.
	rig := &fleetRig{origin: newTestOrigin()}
	t.Cleanup(rig.origin.srv.Close)
	for i := 0; i < 3; i++ {
		px := NewProxy(1 << 20)
		srv := httptest.NewServer(wiretest.StrictFraming(t, px.Handler()))
		t.Cleanup(srv.Close)
		rig.proxies = append(rig.proxies, px)
		rig.servers = append(rig.servers, srv)
		rig.urls = append(rig.urls, srv.URL)
	}
	for i, px := range rig.proxies {
		members := rig.urls[:2]
		if i == 2 {
			members = rig.urls // the joiner knows the full roster
		}
		px.EnableFleet(FleetOptions{Self: rig.urls[i], Members: members})
	}

	const objects = 60
	var objURLs []string
	for i := 0; i < objects; i++ {
		u := fmt.Sprintf("%s/join-obj-%d", rig.origin.srv.URL, i)
		objURLs = append(objURLs, u)
		if status, _ := rig.fetchVia(t, 0, u); status != 200 {
			t.Fatalf("warm fetch %d failed", i)
		}
	}
	warmHits := rig.origin.hits.Load()
	if warmHits != objects {
		t.Fatalf("warmup cost %d origin hits, want %d", warmHits, objects)
	}

	if notified := rig.proxies[2].JoinFleet(); notified != 2 {
		t.Fatalf("join notified %d members, want 2", notified)
	}

	// Exactly the keys whose ownership moved to the joiner migrated.
	joinedRing := rig.proxies[0].FleetRing()
	for _, u := range objURLs {
		folded := fold(keyOf(u))
		owner, _ := joinedRing.OwnerOf(folded)
		if owner == rig.urls[2] && !rig.proxies[2].store.Contains(folded) {
			t.Fatalf("key of %s moved to the joiner but was not migrated (lost)", u)
		}
	}
	for _, it := range rig.proxies[2].store.Items() {
		if owner, _ := joinedRing.OwnerOf(it.Key); owner != rig.urls[2] {
			t.Fatalf("joiner holds key %x it does not own — needless migration", it.Key)
		}
	}
	if migrated := rig.proxies[2].snapshotStats().Fleet.MigratedIn; migrated == 0 {
		t.Fatal("join migrated nothing; with 60 keys over 3 members some ownership must move")
	}

	// Zero acknowledged-object loss: refetching the whole working set
	// through any front costs no extra origin hits.
	for _, u := range objURLs {
		if status, _ := rig.fetchVia(t, 0, u); status != 200 {
			t.Fatalf("post-join fetch of %s failed", u)
		}
	}
	if hits := rig.origin.hits.Load(); hits != warmHits {
		t.Fatalf("post-join refetch cost %d extra origin hits, want 0", hits-warmHits)
	}

	// The joiner drains on leave: its partition re-homes, and the
	// working set survives another full refetch without origin.
	if moved := rig.proxies[2].LeaveFleet(); moved == 0 {
		t.Fatal("leave migrated nothing")
	}
	if rig.proxies[0].FleetRing().Has(rig.urls[2]) {
		t.Fatal("member 0 still lists the departed member")
	}
	for _, u := range objURLs {
		if status, _ := rig.fetchVia(t, 1, u); status != 200 {
			t.Fatalf("post-leave fetch of %s failed", u)
		}
	}
	if hits := rig.origin.hits.Load(); hits != warmHits {
		t.Fatalf("post-leave refetch cost %d extra origin hits, want 0", hits-warmHits)
	}
}

// TestFleetHeartbeatDropsDeadMember pins the membership layer's
// failure detector: a member that stops answering heartbeats is
// dropped from the ring after heartbeatDropAfter consecutive failures.
func TestFleetHeartbeatDropsDeadMember(t *testing.T) {
	rig := newFleetRig(t, 2, 1, 0, nil)
	dead := "http://127.0.0.1:1" // nothing listens there
	px := rig.proxies[0]
	px.fleet.opts.Members = append(px.fleet.opts.Members, dead)
	px.fleet.ring.Add(dead)

	for i := 0; i < heartbeatDropAfter; i++ {
		px.HeartbeatOnce()
	}
	if px.FleetRing().Has(dead) {
		t.Fatal("dead member still on the ring after failed heartbeats")
	}
	if px.snapshotStats().Fleet.HeartbeatFails != 1 {
		t.Fatal("heartbeat failure not counted")
	}
	// The live member stayed, and its load report landed.
	if !px.FleetRing().Has(rig.urls[1]) {
		t.Fatal("live member was dropped")
	}
}

// TestMetricsDocFleet holds the fleet.* namespace in METRICS.md
// against what a fleet-enabled proxy's /metrics registers, both ways.
func TestMetricsDocFleet(t *testing.T) {
	md, err := os.ReadFile("../../METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry("doc-smoke-fleet")
	rig := newFleetRig(t, 2, 2, 4, nil)
	rig.proxies[0].SetMetrics(reg)
	resp, err := rig.servers[0].Client().Get(rig.urls[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var names []string
	for _, m := range reg.Snapshot() {
		names = append(names, m.Name)
	}
	if err := obs.CheckMetricsDoc(md, names, "fleet"); err != nil {
		t.Fatal(err)
	}
}
