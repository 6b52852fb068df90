package sim

import (
	"fmt"

	"webcache/internal/cache"
	"webcache/internal/fleet"
	"webcache/internal/invariant"
	"webcache/internal/netmodel"
	"webcache/internal/obs"
	"webcache/internal/p2p"
	"webcache/internal/trace"
)

// fleetEngine simulates the cooperating proxy fleet (DESIGN.md §12):
// FleetSize proxy caches partitioned by a consistent-hash ring, with
// k-way replication of hot objects.  There is no P2P client tier —
// the fleet variant isolates the proxy tier (the chaos suite's
// fleet-partition scenario runs it beside a live fleet):
//
//   - a request lands at its cluster's front proxy; a local hit means
//     the front owns the key or holds a hot replica of it;
//   - a front miss routes the request to the key's owner (the first
//     reachable ring candidate), which serves from its cache or fills
//     from origin on the front's behalf — the front never caches keys
//     it does not own, so each object has one home plus replicas;
//   - candidates crossing FleetHotAfter accesses push copies to the
//     other k−1 replica members (load-spread: those fronts then serve
//     the object locally);
//   - FleetPartitionAt isolates the highest-indexed member mid-run:
//     routing skips it (the live breaker analogue) and requests it
//     fronts pass through to origin uncached.
//
// With Config.Check set, a fleet-level ClusterAccountant tracks every
// store, replica placement, and eviction receipt; finish reconciles
// the replica ledger against a ground-truth scan of all member caches
// (ReconcileCopies).  A partitioned run downgrades to the ledger
// identity only: copies stranded on the isolated member make strict
// per-object counts unknowable, like churn does for Hier-GD.
type fleetEngine struct {
	cfg Config
	net netmodel.Model

	ring    *fleet.Ring
	members []*fleetMember
	idx     map[string]int // member name -> index
	loads   *fleet.LoadTracker
	acct    *invariant.ClusterAccountant
	// checking gates the eviction-receipt projection (evictedIDs
	// allocates) so unchecked runs skip ledger bookkeeping entirely.
	checking bool
	// cands memoizes each object's ring candidates as member indices:
	// the ring is immutable for the whole run, so ReplicasOf (which
	// allocates a []string and hashes per call) runs once per object
	// instead of once per request.
	cands map[trace.ObjectID][]int
	// ar holds the run's receipt-projection scratch (see arena.go).
	ar arena

	partitioned bool // FleetPartitionAt reached
	victim      int  // member isolated by the partition

	routed, routedHits, routedOrigin int
	routeFailed, routeSkipped        int
	replicasPlaced                   int
}

type fleetMember struct {
	name      string
	cache     cache.Policy
	evictions obs.Counter
}

func newFleetEngine(cfg Config, sz sizing) *fleetEngine {
	e := &fleetEngine{
		cfg:    cfg,
		net:    cfg.Net,
		loads:  fleet.NewLoadTracker(0),
		idx:    make(map[string]int, cfg.FleetSize),
		victim: cfg.FleetSize - 1,
	}
	names := make([]string, cfg.FleetSize)
	for p := 0; p < cfg.FleetSize; p++ {
		name := fmt.Sprintf("fleet%d", p)
		names[p] = name
		e.idx[name] = p
		e.members = append(e.members, &fleetMember{
			name:  name,
			cache: invariant.WrapPolicy(cache.NewGreedyDual(sz.proxyCap[p]), cfg.Check, name+".cache"),
		})
	}
	e.ring = fleet.NewRingOf(fleet.DefaultVirtualNodes, names)
	e.cands = make(map[trace.ObjectID][]int)
	e.acct = invariant.NewClusterAccountant(cfg.Check, "fleet")
	e.checking = cfg.Check != nil
	if cfg.FleetPartitionAt > 0 {
		// Copies stranded on the isolated member keep serving its own
		// fronted clients but cannot be receipted across the cut, so
		// only the ledger identity stays checkable.
		e.acct.Lenient()
	}
	return e
}

// cut reports whether member i is on the wrong side of the partition.
func (e *fleetEngine) cut(i int) bool { return e.partitioned && i == e.victim }

// candidates returns obj's replica candidates as member indices,
// memoized for the run (the ring never changes after construction).
func (e *fleetEngine) candidates(obj trace.ObjectID) []int {
	if c, ok := e.cands[obj]; ok {
		return c
	}
	names := e.ring.ReplicasOf(obj, e.cfg.FleetReplication)
	c := make([]int, len(names))
	for i, name := range names {
		c[i] = e.idx[name]
	}
	e.cands[obj] = c
	return c
}

func (e *fleetEngine) serve(obj trace.ObjectID, size uint32, proxy, _ int, st *obs.SpanTrace) (netmodel.Source, float64) {
	front := e.members[proxy]

	// 1. Front-local hit: the front owns the key, holds a hot replica,
	//    or is serving its own origin fill back.
	if front.cache.Access(obj) {
		st.Span("proxy.cache", string(netmodel.CompTl), e.net.Tl)
		return netmodel.SrcLocalProxy, e.net.Latency(netmodel.SrcLocalProxy)
	}
	st.Span("proxy.cache", string(netmodel.CompTl), e.net.Tl)

	cands := e.candidates(obj)

	// 2. The front is itself a candidate: fill from origin and keep the
	//    copy — this is the only way keys enter a member's cache on the
	//    request path (the front never caches keys it does not own).
	for _, i := range cands {
		if i == proxy {
			e.insertAt(proxy, obj, size)
			e.touch(proxy, obj, size)
			st.Span("origin.fetch", string(netmodel.CompTs), e.net.Ts)
			return netmodel.SrcServer, e.net.Latency(netmodel.SrcServer)
		}
	}

	// 3. Route to the first reachable candidate (owner first —
	//    deterministic, so without a partition every key has exactly
	//    one home and the strict replica ledger stays exact).
	target := -1
	if !e.cut(proxy) { // a partitioned front cannot reach anyone
		for _, i := range cands {
			if e.cut(i) {
				e.routeSkipped++
				continue
			}
			target = i
			break
		}
	}
	if target < 0 {
		// Fleet unreachable: pass through to origin without caching —
		// the front is not an owner, so keeping the copy would break
		// the one-home discipline.
		e.routeFailed++
		st.Span("origin.fetch", string(netmodel.CompTs), e.net.Ts)
		return netmodel.SrcServer, e.net.Latency(netmodel.SrcServer)
	}
	e.routed++
	tm := e.members[target]
	if tm.cache.Access(obj) {
		e.routedHits++
		e.touch(target, obj, size)
		st.Span("fleet.route", string(netmodel.CompTc), e.net.Tc)
		return netmodel.SrcRemoteProxy, e.net.Latency(netmodel.SrcRemoteProxy)
	}

	// 4. Owner-side origin fill on the front's behalf: the owner keeps
	//    the copy, the front pays the extra Tc hop on top of the
	//    origin fetch.
	e.routedOrigin++
	e.insertAt(target, obj, size)
	e.touch(target, obj, size)
	st.Span("fleet.route", string(netmodel.CompTc), e.net.Tc)
	st.Span("origin.fetch", string(netmodel.CompTs), e.net.Ts)
	return netmodel.SrcServer, e.net.Latency(netmodel.SrcServer) + e.net.Tc
}

// insertAt caches an origin fill at member i and feeds the receipt
// (including displaced objects) into the fleet ledger.  Copies only
// ever live on ring candidates, so scanning the other candidates
// classifies the insert exactly: a first copy is a primary store, any
// further one is a replica placement (two replica members can each
// origin-fill the same key for their own fronted clients, and the
// owner can re-fill a key whose primary it evicted while a hot copy
// survives elsewhere).
func (e *fleetEngine) insertAt(i int, obj trace.ObjectID, size uint32) {
	copyExists := false
	for _, j := range e.candidates(obj) {
		if j != i && e.members[j].cache.Contains(obj) {
			copyExists = true
			break
		}
	}
	m := e.members[i]
	evicted := m.cache.Add(cache.Entry{Obj: obj, Size: size, Cost: e.net.FetchCost(netmodel.SrcServer)})
	m.evictions.Add(int64(len(evicted)))
	if !e.checking {
		return
	}
	if copyExists {
		e.acct.RecordReplica(obj, e.ar.evictedIDs(evicted))
	} else {
		e.acct.RecordStore(p2p.Receipt{Stored: obj, StoredOK: true, Evicted: e.ar.evictedIDs(evicted)})
	}
}

// touch records an access against the per-key load estimate at a
// candidate member and replicates the object out to the other replica
// members each time it crosses a FleetHotAfter multiple.
func (e *fleetEngine) touch(holder int, obj trace.ObjectID, size uint32) {
	if e.cfg.FleetReplication < 2 {
		return
	}
	n := e.loads.Touch(obj)
	if n < uint32(e.cfg.FleetHotAfter) || n%uint32(e.cfg.FleetHotAfter) != 0 {
		return
	}
	for _, i := range e.candidates(obj) {
		if i == holder || e.cut(i) || e.cut(holder) {
			continue
		}
		m := e.members[i]
		if m.cache.Contains(obj) {
			continue
		}
		// Replicas arrive over the Tc hop, so that is their re-fetch
		// cost under greedy-dual.
		evicted := m.cache.Add(cache.Entry{Obj: obj, Size: size, Cost: e.net.FetchCost(netmodel.SrcRemoteProxy)})
		m.evictions.Add(int64(len(evicted)))
		if e.checking {
			e.acct.RecordReplica(obj, e.ar.evictedIDs(evicted))
		}
		e.replicasPlaced++
	}
}

// maintain trips the partition at its configured request index.
func (e *fleetEngine) maintain(reqIdx int, res *Result) {
	if e.cfg.FleetPartitionAt > 0 && reqIdx == e.cfg.FleetPartitionAt && !e.partitioned {
		e.partitioned = true
		res.MaintenanceTicks++
	}
}

func (e *fleetEngine) finish(res *Result) {
	res.FleetMembers = len(e.members)
	res.FleetRouted = e.routed
	res.FleetRoutedHits = e.routedHits
	res.FleetRoutedOrigin = e.routedOrigin
	res.FleetRouteFailed = e.routeFailed
	res.FleetRouteSkipped = e.routeSkipped
	res.FleetReplicas = e.replicasPlaced
	res.FleetHotKeys = e.loads.Len()
	for _, m := range e.members {
		res.ProxyEvictions += int(m.evictions.Value())
	}
	if e.cfg.Check == nil {
		return
	}
	// Ground truth for the replica ledger: how many copies of each
	// object are actually resident across the fleet.
	ground := make(map[trace.ObjectID]int64)
	for _, m := range e.members {
		for _, obj := range m.cache.Objects() {
			ground[obj]++
		}
	}
	e.acct.ReconcileCopies(ground)
}
