package sim

import (
	"fmt"
	"math/rand"

	"webcache/internal/cache"
	"webcache/internal/directory"
	"webcache/internal/invariant"
	"webcache/internal/netmodel"
	"webcache/internal/obs"
	"webcache/internal/p2p"
	"webcache/internal/trace"
)

// hierGDEngine implements Hier-GD (paper §3–4) end to end:
//
//   - each proxy runs greedy-dual over its proxy cache;
//   - each proxy owns a real P2P client cluster (Pastry overlay,
//     greedy-dual at every client cache, object diversion);
//   - proxy evictions are passed down into the P2P client cache,
//     piggybacked on HTTP responses unless disabled;
//   - the proxy maintains a lookup directory (Exact or Bloom) kept
//     consistent by store receipts;
//   - cooperating proxies serve each other from proxy caches or, via
//     the push mechanism, from their P2P client caches.
type hierGDEngine struct {
	peerTier
	cfg     Config
	proxies []*hierGDProxy
	rng     *rand.Rand
	// churnAt is the trace's midpoint, where the Churn fault strikes.
	churnAt int
	// recent is a ring buffer of recently requested objects — the
	// directory-poisoning attack's candidate pool (only maintained
	// under the Poison fault, so the default run's state is untouched).
	recent    []trace.ObjectID
	recentIdx int
	// Byzantine telemetry (folded into the Result at finish).
	byzantineServes, byzantineDetected int
}

type hierGDProxy struct {
	clientCluster
	cache cache.Policy // greedy-dual, per the paper
	dir   directory.Directory
	// dirFP counts lookup-directory false positives (Bloom aliasing or
	// churn staleness); evictions counts destaged proxy evictions.
	dirFP     obs.Counter
	evictions obs.Counter
}

// clientCluster is one proxy's P2P client cache, a Pastry overlay of
// client caches, with its conservation oracle.  Hier-GD and Squirrel
// build and check theirs the same way.
type clientCluster struct {
	cluster *p2p.Cluster
	acct    *invariant.ClusterAccountant // nil when checking is off
}

// newClientCluster builds cluster p of a run.  label names it in
// violation reports; seedStride spaces the clusters' overlay seeds
// (each scheme keeps its own stride, so its overlays never move).
func newClientCluster(cfg Config, sz sizing, p int, label string, seedStride int64) (clientCluster, error) {
	pcfg := p2p.Config{
		NumClients:        cfg.P2PClientCaches,
		PerClientCapacity: sz.clientCap[p],
		DisableDiversion:  cfg.DisableDiversion,
		Seed:              cfg.Seed + int64(p)*seedStride,
	}
	if cfg.Check != nil {
		pcfg.WrapCache = func(cp cache.Policy, clabel string) cache.Policy {
			return invariant.WrapPolicy(cp, cfg.Check, label+"."+clabel)
		}
	}
	cluster, err := p2p.NewCluster(pcfg)
	if err != nil {
		return clientCluster{}, err
	}
	return clientCluster{cluster, invariant.NewClusterAccountant(cfg.Check, label)}, nil
}

// finishCluster checks the cluster against its oracles when chk is
// set and folds its P2P telemetry into res.  The ring may carry
// lazily-unrepaired state after churn; one maintenance round first puts
// it in the stable state the ring oracle is specified against.
func (c clientCluster) finishCluster(chk *invariant.Checker, res *Result) {
	if chk != nil {
		c.cluster.Overlay().Stabilize()
		invariant.CheckRing(chk, c.cluster.Overlay(), 32)
		c.acct.Reconcile(c.cluster)
	}
	res.addP2P(c.cluster.Stats())
}

// found records a client-cache lookup's receipt and, on a miss, drops
// the false-positive directory entry.
func (px *hierGDProxy) found(obj trace.ObjectID, lr *p2p.LookupResult, err error) bool {
	if err == nil {
		px.acct.RecordLookup(obj, lr)
	}
	if err != nil || !lr.Found {
		px.dir.Remove(obj)
		px.dirFP.Inc()
		return false
	}
	return true
}

func newHierGDEngine(cfg Config, sz sizing) (*hierGDEngine, error) {
	e := &hierGDEngine{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed + 0x5ee1)),
		churnAt: sz.requests / 2,
	}
	for p := 0; p < cfg.NumProxies; p++ {
		label := fmt.Sprintf("proxy%d", p)
		cc, err := newClientCluster(cfg, sz, p, label, 7919)
		if err != nil {
			return nil, err
		}
		var dir directory.Directory = directory.NewExact()
		if cfg.Directory == DirBloom {
			dir = directory.NewBloom(int(sz.p2pCap[p])+1, DefaultBloomFPRate)
		}
		px := &hierGDProxy{
			clientCluster: cc,
			cache:         invariant.WrapPolicy(cache.NewGreedyDualDense(sz.proxyCap[p], sz.objects), cfg.Check, label+".cache"),
			dir:           invariant.WrapDirectory(dir, cfg.Check, label),
		}
		if cfg.ReplaceFailed {
			// Churn joins hand objects off without receipts: ground-truth
			// reconciliation would report false positives, so only the
			// ledger identity stays on.
			px.acct.Lenient()
		}
		e.proxies = append(e.proxies, px)
	}
	// A proxy can serve a peer from its own cache and from its P2P
	// client cache, as recorded in its directory.
	e.peerTier = newPeerTier(cfg, sz, e, func(q int) []trace.ObjectID {
		return append(e.proxies[q].cache.Objects(), e.proxies[q].dir.Objects()...)
	})
	return e, nil
}

// own tries px's proxy cache (a greedy-dual hit refreshes H), then its
// P2P client cache when the lookup directory says so (§4.2).
func (e *hierGDEngine) own(obj trace.ObjectID, proxy, member int, st *obs.SpanTrace) (netmodel.Source, float64) {
	px := e.proxies[proxy]
	if px.cache.Access(obj) {
		return netmodel.SrcLocalProxy, 0
	}

	// The directory-poisoning attack draws its bogus entries from
	// recently requested objects, so re-requests actually pay for them.
	if e.cfg.Poison {
		if len(e.recent) < 256 {
			e.recent = append(e.recent, obj)
		} else {
			e.recent[e.recentIdx%len(e.recent)] = obj
			e.recentIdx++
		}
	}

	// A client-cache hit is served from the client cache and stays there
	// — the proxy redirects the request, the response does not flow
	// through the proxy cache.
	if !px.dir.MayContain(obj) {
		return netmodel.SrcServer, 0
	}
	lr, err := px.cluster.Lookup(obj, member)
	if !px.found(obj, &lr, err) {
		// False positive (Bloom aliasing, poisoning, or object lost to
		// churn): found repaired the directory; fall through.
		st.WastedSpan("dir.false_positive", string(netmodel.CompTp2p), e.net.Tp2p)
		return netmodel.SrcServer, e.net.Tp2p
	}
	// Byzantine clients corrupt a fraction of P2P serves.  A corruption
	// detected by the hardened digest sampling wastes the P2P fetch and
	// falls through toward peers/origin — the object *is* resident, so
	// the directory entry stands.  An undetected one is served to the
	// client as if it were good.
	corrupt := e.cfg.Byzantine && e.rng.Float64() < ByzantineFraction
	detected := corrupt && e.cfg.Hardened && e.rng.Float64() < verifyFraction
	if corrupt {
		e.byzantineServes++
	}
	if !detected {
		return netmodel.SrcP2P, 0
	}
	e.byzantineDetected++
	st.WastedSpan("p2p.corrupt", string(netmodel.CompTp2p), e.net.Tp2p)
	return netmodel.SrcServer, e.net.Tp2p
}

// fill caches what a miss fetched at the proxy; greedy-dual cost is the
// fetch latency actually paid.  Evictions pass down into the P2P client
// cache (§3, Figure 1), piggybacked on the HTTP response to the
// requesting client (§4.4).
func (e *hierGDEngine) fill(obj trace.ObjectID, size uint32, proxy, member int, src netmodel.Source) {
	px := e.proxies[proxy]
	evicted := px.cache.Add(cache.Entry{Obj: obj, Size: size, Cost: e.net.FetchCost(src)})
	px.evictions.Add(int64(len(evicted)))
	for _, ev := range evicted {
		r, err := px.cluster.StoreEvicted(ev, member, !e.cfg.DisablePiggyback)
		if err != nil {
			continue // cluster fully failed: the object is dropped
		}
		px.acct.RecordStore(r)
		if r.StoredOK {
			px.dir.Add(r.Stored)
		}
		for _, gone := range r.Evicted {
			px.dir.Remove(gone)
		}
	}
}

// peerServes asks cooperating proxy q for obj: its proxy cache first,
// then its P2P client cache via push (§4.5).  A directory false
// positive at q wastes the Tp2p round trip q paid before reporting the
// miss.
func (e *hierGDEngine) peerServes(q int, obj trace.ObjectID, st *obs.SpanTrace) (bool, float64) {
	peer := e.proxies[q]
	if peer.cache.Access(obj) {
		st.Span("peer.fetch", string(netmodel.CompTc), e.net.Tc)
		return true, 0
	}
	if !peer.dir.MayContain(obj) {
		return false, 0
	}
	if lr, err := peer.cluster.PushFetch(obj); peer.found(obj, &lr, err) {
		st.Span("peer.push", string(netmodel.CompTc), e.net.Tc)
		return true, 0
	}
	st.WastedSpan("peer.dir.false_positive", string(netmodel.CompTp2p), e.net.Tp2p)
	return false, e.net.Tp2p
}

// maintain rebuilds inter-proxy digests and injects client-cache
// failures (and optional replacements) on their respective periods,
// plus the chaos faults: the flash-churn storm, directory poisoning,
// and the periodic directory sweep that hardens against it.
// FailEvery draws from e.rng after every other event.
func (e *hierGDEngine) maintain(reqIdx int, res *Result) {
	e.peerTier.maintain(reqIdx, res)
	if e.cfg.Churn && reqIdx == e.churnAt {
		res.MaintenanceTicks++
		e.flashChurn(res)
	}
	if e.cfg.Poison && every(reqIdx, poisonEvery) {
		res.MaintenanceTicks++
		e.poisonDirectories(res)
	}
	if e.cfg.Poison && e.cfg.Hardened && every(reqIdx, dirSweepEvery) {
		res.MaintenanceTicks++
		e.sweepDirectories(res)
	}
	if !every(reqIdx, e.cfg.FailEvery) {
		return
	}
	res.MaintenanceTicks++
	// Pick a random live client, sparing a cluster's last one.
	px := e.proxies[e.rng.Intn(len(e.proxies))]
	for attempts := 0; attempts < 100 && px.cluster.LiveClients() > 1; attempts++ {
		if e.failClient(px, e.rng.Intn(e.cfg.P2PClientCaches), res) {
			if e.cfg.ReplaceFailed {
				px.cluster.JoinClient()
			}
			return
		}
	}
}

// failClient crashes client i of px's cluster unless it is already
// dead, and drops what it held from the lookup directory.
func (e *hierGDEngine) failClient(px *hierGDProxy, i int, res *Result) bool {
	if px.cluster.IsDead(i) {
		return false
	}
	lost, err := px.cluster.FailClient(i)
	if err != nil {
		return false
	}
	px.acct.RecordFailure(lost)
	for _, obj := range lost {
		px.dir.Remove(obj)
	}
	res.FailedClients++
	return true
}

// flashChurn fails ChurnFraction of every cluster's live clients
// at once — the mass-disconnect storm.  Victims are the lowest-index
// live clients (deterministic: no rng draw, so enabling the scenario
// does not perturb FailEvery's stream).  At least one client per
// cluster survives.
func (e *hierGDEngine) flashChurn(res *Result) {
	for _, px := range e.proxies {
		kill := int(float64(px.cluster.LiveClients()) * ChurnFraction)
		for i := 0; i < e.cfg.P2PClientCaches && kill > 0 && px.cluster.LiveClients() > 1; i++ {
			if e.failClient(px, i, res) {
				kill--
				res.FlashChurned++
			}
		}
	}
}

// The chaos faults' magnitudes in the simulator (internal/chaos runs
// churn and byzantine daemons live at the same fractions), and the
// tuning of the defenses Config.Hardened turns on.
const (
	ChurnFraction     = 0.5  // of every cluster's live clients fail under Churn
	ByzantineFraction = 0.5  // of P2P serves are corrupt under Byzantine
	poisonEvery       = 500  // requests between Poison's rounds
	poisonBatch       = 8    // bogus entries one round tries to plant
	dirSweepEvery     = 250  // requests between hardened directory sweeps
	verifyFraction    = 0.95 // of corrupt serves hardened digest sampling detects
)

// poisonDirectories injects poisonBatch bogus entries per round into a
// random proxy's directory: recently requested objects the cluster
// does not hold, so Zipf re-requests pay the wasted Tp2p probe before
// the serve path repairs the entry.
func (e *hierGDEngine) poisonDirectories(res *Result) {
	if len(e.recent) == 0 {
		return
	}
	px := e.proxies[e.rng.Intn(len(e.proxies))]
	for n := 0; n < poisonBatch; n++ {
		obj := e.recent[e.rng.Intn(len(e.recent))]
		if !px.cluster.Contains(obj) && !px.dir.MayContain(obj) {
			px.dir.Add(obj)
			res.PoisonInjected++
		}
	}
}

// sweepDirectories is the poisoning defense: drop every directory
// entry the cluster cannot back (ground-truth audit, the simulator
// stand-in for the live proxy's receipt-fed repair).
func (e *hierGDEngine) sweepDirectories(res *Result) {
	for _, px := range e.proxies {
		for _, obj := range px.dir.Objects() {
			if !px.cluster.Contains(obj) {
				px.dir.Remove(obj)
				res.PoisonSwept++
			}
		}
	}
}

func (e *hierGDEngine) finish(res *Result) {
	// Unswept poison at end of run would trip the strict directory
	// reconciliation (by design: the oracle is exact); a final sweep is
	// part of the scenario's defense contract.
	if e.cfg.Poison {
		e.sweepDirectories(res)
	}
	res.ByzantineServes += e.byzantineServes
	res.ByzantineDetected += e.byzantineDetected
	e.peerTier.finish(res)
	for p, px := range e.proxies {
		px.finishCluster(e.cfg.Check, res)
		if chk := e.cfg.Check; chk != nil && px.acct.Strict() {
			invariant.ReconcileDirectory(chk, fmt.Sprintf("proxy%d", p), px.dir,
				px.cluster.Contains, px.acct.Resident())
		}
		if lb := px.cluster.LoadBalance(); lb.MaxServes > res.P2PMaxNodeServes {
			res.P2PMaxNodeServes = lb.MaxServes
		}
		res.ProxyEvictions += int(px.evictions.Value())
		res.DirectoryFalsePositives += int(px.dirFP.Value())
		res.DirectoryMemoryBytes += px.dir.MemoryBytes()
	}
}
