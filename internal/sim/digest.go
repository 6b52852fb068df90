package sim

import (
	"webcache/internal/bloom"
	"webcache/internal/netmodel"
	"webcache/internal/obs"
	"webcache/internal/trace"
)

// peerTier is the request cascade every proxy-fronted scheme walks
// (NC through FC-EC and Hier-GD): the client->proxy leg (Tl), the
// proxy's own tiers, the cooperating proxies in ring order, then the
// origin.  What each rung holds stays with the scheme, behind
// proxyTiers; the spans of the shared legs and the latency charge are
// made here alone.  Squirrel, with no proxy leg, walks none of it.
//
// The peers' digests are Summary Cache (Fan et al. — the paper's
// reference [7] and the deployable form of "directory-based schemes"
// its related work surveys).  With Config.DigestInterval == 0 the
// simulator gives cooperating proxies perfect, instantaneous knowledge
// of each other's contents — the idealization the paper's SC/FC/Hier-GD
// results assume.  With a positive interval, each proxy instead
// publishes a Bloom-filter digest of everything it can serve (proxy
// cache plus, for Hier-GD, its P2P client cache) every N requests.
// Peers consult the possibly stale digest; a probe that the digest
// endorses but the peer can no longer serve costs a wasted Tc round
// trip on top of wherever the object is finally found, exactly as a
// stale Summary-Cache entry does.
type peerTier struct {
	n        int // proxies in the walk; 0 when the scheme does not cooperate
	interval int // digest rebuild period, Config.DigestInterval
	net      netmodel.Model
	scheme   proxyTiers
	// digests[q] is proxy q's digest, a snapshot of contents(q); nil
	// under perfect inter-proxy knowledge.
	digests  []*bloom.Filter
	contents func(q int) []trace.ObjectID
	rebuilds int
	stale    int // wasted probes on stale digest entries
}

// proxyTiers is one scheme's caches as the cascade asks them.
type proxyTiers interface {
	// own looks obj up in proxy's own tiers, its cache then its client
	// cache, for a request by member.  A miss returns SrcServer.  The
	// latency is what the lookup wasted (a directory false positive).
	own(obj trace.ObjectID, proxy, member int, st *obs.SpanTrace) (netmodel.Source, float64)
	// peerServes reports whether cooperating proxy q served obj, and
	// the latency it wasted if not.
	peerServes(q int, obj trace.ObjectID, st *obs.SpanTrace) (bool, float64)
	// fill caches at proxy what a miss fetched from src.
	fill(obj trace.ObjectID, size uint32, proxy, member int, src netmodel.Source)
}

// newPeerTier sets up the cascade over scheme's tiers among cfg's
// proxies; contents(q) snapshots what proxy q can serve a peer.
func newPeerTier(cfg Config, sz sizing, scheme proxyTiers, contents func(q int) []trace.ObjectID) peerTier {
	t := peerTier{interval: cfg.DigestInterval, net: cfg.Net, scheme: scheme, contents: contents}
	if !cfg.Scheme.Cooperative() {
		return t
	}
	t.n = cfg.NumProxies
	if t.interval > 0 {
		for q := 0; q < t.n; q++ {
			t.digests = append(t.digests, bloom.NewForCapacity(int(sz.proxyCap[q]+sz.p2pCap[q])+1, DefaultBloomFPRate))
		}
		t.rebuild()
	}
	return t
}

// serve walks the cascade for a request by member of proxy's cluster.
// Every probe wasted on the way is charged on top of the latency of
// the tier that finally serves.
func (t *peerTier) serve(obj trace.ObjectID, size uint32, proxy, member int, st *obs.SpanTrace) (netmodel.Source, float64) {
	st.Span("proxy.cache", string(netmodel.CompTl), t.net.Tl)
	src, extra := t.scheme.own(obj, proxy, member, st)
	switch src {
	case netmodel.SrcP2P:
		st.Span("p2p.fetch", string(netmodel.CompTp2p), t.net.Tp2p)
	case netmodel.SrcServer:
		src, extra = t.fetch(obj, proxy, st, extra)
		// "Once a proxy fetches an object from another proxy, it caches
		// the object locally" (§2) — and likewise for server fetches.
		t.scheme.fill(obj, size, proxy, member, src)
	}
	return src, t.net.Latency(src) + extra
}

// rebuild re-snapshots every proxy's contents into its digest.
func (t *peerTier) rebuild() {
	for q, d := range t.digests {
		d.Reset()
		for _, obj := range t.contents(q) {
			d.Add(uint64(obj))
		}
	}
	t.rebuilds += len(t.digests)
}

// mayContain reports whether proxy q's (possibly stale) digest, if
// any, endorses obj.
func (t *peerTier) mayContain(q int, obj trace.ObjectID) bool {
	return t.digests == nil || t.digests[q].MayContain(uint64(obj))
}

// fetch resolves a local miss: it asks the endorsed peers in ring
// order after proxy, then the origin server.  What a peer wasted, plus
// a Tc round trip per stale endorsement, is added to extra.
func (t *peerTier) fetch(obj trace.ObjectID, proxy int, st *obs.SpanTrace, extra float64) (netmodel.Source, float64) {
	for i := 1; i < t.n; i++ {
		q := (proxy + i) % t.n
		if !t.mayContain(q, obj) {
			continue
		}
		served, wasted := t.scheme.peerServes(q, obj, st)
		if served {
			return netmodel.SrcRemoteProxy, extra
		}
		extra += wasted
		if t.digests != nil {
			t.stale++
			st.WastedSpan("peer.probe.stale", string(netmodel.CompTc), t.net.Tc)
			extra += t.net.Tc
		}
	}
	st.Span("origin.fetch", string(netmodel.CompTs), t.net.Ts)
	return netmodel.SrcServer, extra
}

// maintain rebuilds the digests on their exchange period.
func (t *peerTier) maintain(reqIdx int, res *Result) {
	if t.digests != nil && every(reqIdx, t.interval) {
		res.MaintenanceTicks++
		t.rebuild()
	}
}

// finish folds the tier's telemetry into res.
func (t *peerTier) finish(res *Result) {
	res.DigestStaleProbes += t.stale
	res.DigestRebuilds += t.rebuilds
	for _, d := range t.digests {
		res.DigestMemoryBytes += d.MemoryBytes()
	}
}
