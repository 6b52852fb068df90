package sim

import (
	"fmt"

	"webcache/internal/cache"
	"webcache/internal/netmodel"
	"webcache/internal/obs"
	"webcache/internal/trace"
)

// squirrelEngine implements the Squirrel home-node model (Iyer,
// Rowstron & Druschel, PODC 2002) — the related system the paper
// differentiates itself from (§6): a decentralized peer-to-peer web
// cache pooling browser caches *in the absence of the proxy*.
//
// Per-request behaviour (home-store model):
//
//  1. the client routes the request through the Pastry overlay to the
//     object's home node (its own cache partition acts as L1, but the
//     trace is proxy-level — browser hits are already filtered out, as
//     for every other scheme);
//  2. a home-node hit serves at LAN cost (Tp2p);
//  3. a miss fetches from the origin server and the home node caches
//     the object.
//
// Squirrel has no proxy tier and, crucially, no inter-organization
// sharing: client caches sit behind their organization's firewall, so
// a Squirrel cluster in one organization cannot serve another (the
// paper's §6 argument for keeping proxies in the loop).  The simulator
// therefore gives each cluster an isolated overlay, and the
// Hier-GD-vs-Squirrel comparison quantifies what proxy cooperation
// adds on top of client-cache pooling.
//
// Squirrel is not one of the paper's seven schemes; it is provided as
// the related-work baseline (Scheme value Squirrel).
type squirrelEngine struct {
	cfg      Config
	net      netmodel.Model
	clusters []clientCluster
}

func newSquirrelEngine(cfg Config, sz sizing) (*squirrelEngine, error) {
	e := &squirrelEngine{cfg: cfg, net: cfg.Net}
	for p := 0; p < cfg.NumProxies; p++ {
		// Squirrel pools the whole client cache budget: the proxy-tier
		// budget does not exist, so each client contributes only its
		// cooperative partition, as in Hier-GD.
		cc, err := newClientCluster(cfg, sz, p, fmt.Sprintf("squirrel%d", p), 104729)
		if err != nil {
			return nil, err
		}
		e.clusters = append(e.clusters, cc)
	}
	return e, nil
}

func (e *squirrelEngine) serve(obj trace.ObjectID, size uint32, proxy, member int, st *obs.SpanTrace) (netmodel.Source, float64) {
	cc := e.clusters[proxy]
	// One route to the home node serves both halves: the lookup and, on
	// a miss, the store of what the requester fetched from the origin.
	lr, r, err := cc.cluster.LookupOrStore(cache.Entry{Obj: obj, Size: size, Cost: e.net.Ts}, member)
	if err == nil {
		cc.acct.RecordLookup(obj, &lr)
		if !lr.Found {
			cc.acct.RecordStore(r)
		}
	}
	if err == nil && lr.Found {
		// Home-node hit: the request goes client -> home node directly
		// over the LAN; there is no proxy leg (Tl) at all.
		st.Span("p2p.route", string(netmodel.CompTp2p), e.net.Tp2p)
		return netmodel.SrcP2P, e.net.Tp2p
	}
	// Miss: the requesting client fetched from the origin server and
	// handed the object to its home node for storage.  No proxy: the
	// client pays the server latency without the Tl leg — the
	// decomposition deliberately shows Squirrel off the end-to-end
	// model every other scheme follows (see CheckDecomposition).
	st.Span("origin.fetch", string(netmodel.CompTs), e.net.Ts)
	return netmodel.SrcServer, e.net.Ts
}

func (e *squirrelEngine) maintain(int, *Result) {}

func (e *squirrelEngine) finish(res *Result) {
	for _, cc := range e.clusters {
		cc.finishCluster(e.cfg.Check, res)
	}
}
