package sim

import (
	"webcache/internal/cache"
	"webcache/internal/netmodel"
	"webcache/internal/obs"
	"webcache/internal/trace"
)

// fcEngine implements FC and FC-EC: the fully coordinated schemes.
// "Based on the assumption of the perfect frequency knowledge to each
// object, the cost-benefit replacement algorithm minimizes the
// aggregate average latency of all the clients in the proxy cluster"
// (§2) — an upper bound on coordination.
//
// We realize perfect frequency knowledge as a *windowed* greedy
// cost-benefit placement (see internal/cache/costbenefit.go and
// DESIGN.md §2.4): every fcWindow requests the cluster's caches are
// re-placed optimally (greedily) for the per-proxy object frequencies
// of the upcoming window.  That is deliberately clairvoyant — the
// paper frames FC/FC-EC as "the upper bound on performance benefit of
// cooperating proxy caching", and window-ahead knowledge is what
// "perfect frequency knowledge" buys a coordinated replacement
// algorithm.  (A whole-trace static placement would under-perform the
// online schemes on workloads with temporal locality; the trailing-
// window variant — Config.FCTrailing — is the implementable adaptive
// form and is strictly weaker.)
//
// For FC-EC each proxy contributes two tiers: its proxy cache at Tl
// and its pooled P2P client cache at Tp2p.
type fcEngine struct {
	cfg       Config
	tr        *trace.Trace
	sz        sizing
	placement *cache.Placement
	// tierKind[t] maps tier index -> serving source for a local hit.
	tierKind []netmodel.Source
	// tierOf[p][o] is the dense mirror of placement.ByProxy[p][o] (-1
	// when proxy p holds no copy of o), and anywhere[o] mirrors
	// placement.Anywhere(o).  Object ids are dense [0, NumObjects), so
	// these arrays replace two map probes per request with two indexed
	// loads; they are allocated once and refilled at window boundaries.
	tierOf   [][]int16
	anywhere []bool
}

// fcWindow is the re-placement period in requests.
const fcWindow = 10_000

func newFCEngine(tr *trace.Trace, cfg Config, sz sizing) (*fcEngine, error) {
	e := &fcEngine{cfg: cfg, tr: tr, sz: sz}
	for p := 0; p < cfg.NumProxies; p++ {
		e.tierKind = append(e.tierKind, netmodel.SrcLocalProxy)
		if cfg.Scheme == FCEC {
			e.tierKind = append(e.tierKind, netmodel.SrcP2P)
		}
	}
	if err := e.replace(0); err != nil {
		return nil, err
	}
	return e, nil
}

// replace recomputes the coordinated placement when the replay reaches
// request index at: from the upcoming window [at, at+fcWindow) by
// default, or under FCTrailing from the previous window
// [at-fcWindow, at) (the very first window has no past and always
// looks forward).
func (e *fcEngine) replace(at int) error {
	lo, hi := at, at+fcWindow
	if e.cfg.FCTrailing && at > 0 {
		lo, hi = at-fcWindow, at
	}
	if lo < 0 {
		lo = 0
	}
	if hi > e.tr.Len() {
		hi = e.tr.Len()
	}
	freq := make([][]float64, e.cfg.NumProxies)
	for p := range freq {
		freq[p] = make([]float64, e.tr.NumObjects)
	}
	var sizes []uint32
	for _, r := range e.tr.Requests[lo:hi] {
		freq[e.sz.clients[r.Client].proxy][r.Object]++
		if r.Size != 1 && sizes == nil {
			sizes = make([]uint32, e.tr.NumObjects)
		}
	}
	if sizes != nil {
		for i := range sizes {
			sizes[i] = 1
		}
		for _, r := range e.tr.Requests {
			sizes[r.Object] = r.Size
		}
	}
	var tiers []cache.Tier
	for p := 0; p < e.cfg.NumProxies; p++ {
		tiers = append(tiers, cache.Tier{Proxy: p, Capacity: int(e.sz.proxyCap[p]), HitLatency: e.cfg.Net.Tl})
		if e.cfg.Scheme == FCEC {
			lat := e.cfg.Net.Tp2p
			if e.cfg.SinglePoolEC {
				// Literal pooled upper bound: client-tier hits at Tl.
				lat = e.cfg.Net.Tl
			}
			tiers = append(tiers, cache.Tier{Proxy: p, Capacity: int(e.sz.p2pCap[p]), HitLatency: lat})
		}
	}
	pl, err := cache.ComputePlacement(cache.PlacementInput{
		Freq:          freq,
		Tiers:         tiers,
		ServerLatency: e.cfg.Net.Ts,
		RemoteLatency: e.cfg.Net.Tc,
		Cooperative:   true,
		Sizes:         sizes,
	})
	if err != nil {
		return err
	}
	e.placement = pl
	if e.tierOf == nil {
		e.tierOf = make([][]int16, e.cfg.NumProxies)
		for p := range e.tierOf {
			e.tierOf[p] = make([]int16, e.tr.NumObjects)
		}
		e.anywhere = make([]bool, e.tr.NumObjects)
	}
	for i := range e.anywhere {
		e.anywhere[i] = false
	}
	for p, m := range pl.ByProxy {
		dense := e.tierOf[p]
		for i := range dense {
			dense[i] = -1
		}
		for obj, t := range m {
			dense[obj] = int16(t)
			e.anywhere[obj] = true
		}
	}
	return nil
}

// maintain re-places the caches at window boundaries.
func (e *fcEngine) maintain(reqIdx int, res *Result) {
	if !every(reqIdx, fcWindow) {
		return
	}
	res.MaintenanceTicks++
	// The frequencies are recomputed from the trace; errors cannot
	// occur after the constructor validated the shape once.
	if err := e.replace(reqIdx); err != nil {
		panic("sim: window re-placement failed: " + err.Error())
	}
}

func (e *fcEngine) serve(obj trace.ObjectID, _ uint32, proxy, _ int, st *obs.SpanTrace) (netmodel.Source, float64) {
	net := e.cfg.Net
	if t := e.tierOf[proxy][obj]; t >= 0 {
		src := e.tierKind[t]
		if src == netmodel.SrcP2P && e.cfg.SinglePoolEC {
			// Pooled client tier serves at proxy latency but is still
			// accounted as a P2P-tier hit.
			st.Span("pool.hit", string(netmodel.CompTl), net.Tl)
			return src, net.Latency(netmodel.SrcLocalProxy)
		}
		st.Span("proxy.cache", string(netmodel.CompTl), net.Tl)
		if src == netmodel.SrcP2P {
			st.Span("p2p.fetch", string(netmodel.CompTp2p), net.Tp2p)
		}
		return src, net.Latency(src)
	}
	st.Span("proxy.cache", string(netmodel.CompTl), net.Tl)
	// Any other proxy's copy (proxy tier or, via push, its P2P client
	// cache) serves at Tc.
	if e.anywhere[obj] {
		st.Span("peer.fetch", string(netmodel.CompTc), net.Tc)
		return netmodel.SrcRemoteProxy, net.Latency(netmodel.SrcRemoteProxy)
	}
	st.Span("origin.fetch", string(netmodel.CompTs), net.Ts)
	return netmodel.SrcServer, net.Latency(netmodel.SrcServer)
}

func (e *fcEngine) finish(*Result) {}
