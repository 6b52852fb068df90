package sim

import (
	"slices"

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
// online schemes on workloads with temporal locality.)
//
// For FC-EC each proxy contributes two tiers: its proxy cache at Tl
// and its pooled P2P client cache at Tp2p.
type fcEngine struct {
	cfg       Config
	tr        *trace.Trace
	sz        sizing
	placement cache.Placement
	// tierKind[t] maps tier index -> serving source for a local hit.
	tierKind []netmodel.Source
	tiers    []cache.Tier
	// freq[p][o] counts window requests for o from proxy p's clients;
	// the rows are cleared and refilled every window.
	freq [][]float64
	// sizes[o] is o's size, from the last request for it in the trace
	// (nil when every request is unit-size).  A window that holds only
	// unit-size requests places at unit sizes.
	sizes []uint32
}

// fcWindow is the re-placement period in requests.
const fcWindow = 10_000

func newFCEngine(tr *trace.Trace, cfg Config, sz sizing) (*fcEngine, error) {
	e := &fcEngine{cfg: cfg, tr: tr, sz: sz, freq: make([][]float64, cfg.NumProxies)}
	for p := 0; p < cfg.NumProxies; p++ {
		e.tierKind = append(e.tierKind, netmodel.SrcLocalProxy)
		e.tiers = append(e.tiers, cache.Tier{Proxy: p, Capacity: int(sz.proxyCap[p]), HitLatency: cfg.Net.Tl})
		if cfg.Scheme == FCEC {
			e.tierKind = append(e.tierKind, netmodel.SrcP2P)
			e.tiers = append(e.tiers, cache.Tier{Proxy: p, Capacity: int(sz.p2pCap[p]), HitLatency: cfg.Net.Tp2p})
		}
		e.freq[p] = make([]float64, tr.NumObjects)
	}
	if slices.ContainsFunc(tr.Requests, func(r trace.Request) bool { return r.Size != 1 }) {
		e.sizes = make([]uint32, tr.NumObjects)
		for i := range e.sizes {
			e.sizes[i] = 1
		}
		for _, r := range tr.Requests {
			e.sizes[r.Object] = r.Size
		}
	}
	if err := e.replace(0); err != nil {
		return nil, err
	}
	return e, nil
}

// replace recomputes the coordinated placement when the replay reaches
// request index at, from the upcoming window [at, at+fcWindow).
func (e *fcEngine) replace(at int) error {
	hi := min(at+fcWindow, e.tr.Len())
	for _, row := range e.freq {
		clear(row)
	}
	unit := true
	for _, r := range e.tr.Requests[at:hi] {
		e.freq[e.sz.clients[r.Client].proxy][r.Object]++
		unit = unit && r.Size == 1
	}
	var sizes []uint32
	if !unit {
		sizes = e.sizes
	}
	return e.placement.Compute(cache.PlacementInput{
		Freq:          e.freq,
		Tiers:         e.tiers,
		ServerLatency: e.cfg.Net.Ts,
		RemoteLatency: e.cfg.Net.Tc,
		Cooperative:   true,
		Sizes:         sizes,
	})
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
	if t := e.placement.ByProxy[proxy][obj]; t >= 0 {
		src := e.tierKind[t]
		st.Span("proxy.cache", string(netmodel.CompTl), net.Tl)
		if src == netmodel.SrcP2P {
			st.Span("p2p.fetch", string(netmodel.CompTp2p), net.Tp2p)
		}
		return src, net.Latency(src)
	}
	st.Span("proxy.cache", string(netmodel.CompTl), net.Tl)
	// Any other proxy's copy (proxy tier or, via push, its P2P client
	// cache) serves at Tc.
	if e.placement.Anywhere(obj) {
		st.Span("peer.fetch", string(netmodel.CompTc), net.Tc)
		return netmodel.SrcRemoteProxy, net.Latency(netmodel.SrcRemoteProxy)
	}
	st.Span("origin.fetch", string(netmodel.CompTs), net.Ts)
	return netmodel.SrcServer, net.Latency(netmodel.SrcServer)
}

func (e *fcEngine) finish(*Result) {}
