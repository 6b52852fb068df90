package sim

import (
	"webcache/internal/bloom"
	"webcache/internal/netmodel"
	"webcache/internal/obs"
	"webcache/internal/trace"
)

// peerTier is the cooperating-proxy tier the SC family and Hier-GD
// share; what a peer can serve stays with each engine.  Its digests
// are Summary Cache (Fan et al. — the paper's reference [7] and the
// deployable form of "directory-based schemes" its related work
// surveys).  With Config.DigestInterval == 0 the simulator gives
// cooperating proxies perfect, instantaneous knowledge of each other's
// contents — the idealization the paper's SC/FC/Hier-GD results
// assume.  With a positive interval, each proxy instead publishes a
// Bloom-filter digest of everything it can serve (proxy cache plus,
// for Hier-GD, its P2P client cache) every N requests.  Peers consult
// the possibly stale digest; a probe that the digest endorses but the
// peer can no longer serve costs a wasted Tc round trip on top of
// wherever the object is finally found, exactly as a stale
// Summary-Cache entry does.
type peerTier struct {
	n        int // proxies in the walk; 0 when the scheme does not cooperate
	interval int // digest rebuild period, Config.DigestInterval
	net      netmodel.Model
	// digests[q] is proxy q's digest, a snapshot of contents(q); nil
	// under perfect inter-proxy knowledge.
	digests  []*bloom.Filter
	contents func(q int) []trace.ObjectID
	rebuilds int
	stale    int // wasted probes on stale digest entries
}

// newPeerTier sets up cooperation among cfg's proxies; contents(q)
// snapshots what proxy q can serve a peer.
func newPeerTier(cfg Config, sz sizing, contents func(q int) []trace.ObjectID) peerTier {
	t := peerTier{interval: cfg.DigestInterval, net: cfg.Net, contents: contents}
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
// order after proxy, then the origin server.  ask(q, ...) reports
// whether peer q served obj and the latency it wasted if not; that,
// plus a Tc round trip per stale endorsement, is added to extra.
func (t *peerTier) fetch(obj trace.ObjectID, proxy int, st *obs.SpanTrace, extra float64,
	ask func(q int, obj trace.ObjectID, st *obs.SpanTrace) (bool, float64)) (netmodel.Source, float64) {
	for i := 1; i < t.n; i++ {
		q := (proxy + i) % t.n
		if !t.mayContain(q, obj) {
			continue
		}
		served, wasted := ask(q, obj, st)
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
