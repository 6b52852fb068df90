// Package httpcache is a working HTTP deployment of the paper's
// system: a caching forward proxy whose evictions are passed down into
// the browser-cache daemons of its client machines, with a lookup
// directory, store receipts, cooperating proxies that ask each other
// only on a digest's word, and greedy-dual replacement everywhere —
// Hier-GD over real sockets rather than the simulator's function calls.
//
// The paper argues Hier-GD "is technically practical" (§5.3); this
// package is that argument made executable:
//
//	origin    := httpcache demo origin (any web server works)
//	cacheA1.. := client-cache daemons   (NewClientCacheOpts + Serve)
//	proxyA    := NewProxyOpts(Options{Peers: {proxyB}, ...});
//	             client daemons register with it
//	proxyB    := a cooperating proxy in another organization
//
// Each daemon is built whole from one Options value — capacity,
// registry, tracer, event log and, for a proxy, its SLO classes,
// defenses, peers and conservation checker — and is complete when its
// constructor returns: nothing is attached once it serves.  A cluster whose members name each other binds every
// listener first, to know the URLs, then builds and serves.
//
//	GET http://proxyA/fetch?url=http://origin/page
//
// serves from, in order: proxyA's cache, proxyA's client caches (via
// the directory and a direct LAN fetch), proxyB (from its cache or its
// client caches, which proxyB fetches from and relays), the origin.
//
// Deployment simplifications relative to the paper, documented here
// once: object placement uses the proxy-side consistent-hash map of
// registered cacheIds instead of client-side Pastry routing (the
// proxy already tracks its cluster, so the DHT buys nothing at one
// organization's scale — the simulator models the full overlay), a
// cooperating proxy's lookup of a client-cache copy is relayed by the
// peer proxy rather than pushed up by the client cache (§4.5's push has
// the client connect out to the proxy so nothing connects in across
// organizations; the relay keeps that, and the proxy already fetches
// from its own client caches for its own hits),
// destaging uses dedicated connections rather than piggybacking
// (HTTP/1.1 has no response-piggyback channel; the simulator
// quantifies what piggybacking saves), and the free-space knowledge
// §4.3 places evictions by is headroom on every store reply, trial
// store only when unknown or stale: each /store reply carries the
// largest body the daemon takes for any key without evicting, each
// member's ring record keeps the last figure, and pass-down picks owner,
// neighbour or forced store from it.  The figure is the daemon's
// capacity less its resident bytes: one policy holds every key, so
// whatever fits for one key fits for all.
package httpcache

import (
	"slices"
	"sort"
	"sync"

	"webcache/internal/pastry"
)

// ServedByHeader is the response header naming the tier that served an
// object body.  Every object-serving response path sets it — it is the
// attribution signal the live load generator (internal/loadgen) keys
// its per-tier accounting on, so a path that forgets it shows up as an
// "unknown" tier in bench reports (and fails the audit test).
const ServedByHeader = "X-Served-By"

// Tier labels carried in ServedByHeader.  The first four are the §5.1
// serving tiers a /fetch client can observe (Tl, Tp2p, Tc, Ts); the
// peer-* pair appears only on the inter-proxy /peer-lookup channel.
const (
	TierProxy       = "proxy"        // local proxy cache hit
	TierClientCache = "client-cache" // own P2P client cache, via the directory
	TierRemoteProxy = "remote-proxy" // served through a cooperating proxy
	TierOrigin      = "origin"       // fetched from the origin server
	TierPeerProxy   = "peer-proxy"   // peer-lookup: from this proxy's cache
	TierPeerP2P     = "peer-p2p"     // peer-lookup: relayed from a client cache
)

// ring is a consistent-hash ring of registered client caches: the
// proxy-side stand-in for DHT routing (see the package comment).  The
// zero value is an empty ring.
type ring struct {
	mu      sync.RWMutex
	members []*peer // sorted by id
}

// freeUnknown marks a member whose headroom has not been reported
// since it (re-)registered; pass-down probes it with a trial store.
const freeUnknown = -1

// search returns the index of the first member whose id is not below id.
func (r *ring) search(id pastry.ID) int {
	return sort.Search(len(r.members), func(i int) bool { return !r.members[i].id.Less(id) })
}

// index returns m's index on the ring, or -1 once m has left it.
func (r *ring) index(m *peer) int {
	if i := r.search(m.id); i < len(r.members) && r.members[i] == m {
		return i
	}
	return -1
}

// add registers the cache daemon at addr and returns its record, whose
// id is the hash of addr.  A daemon that registers again may have
// restarted: its old record leaves the ring, and the new one starts
// with unknown headroom.  It keeps the old record's ledger, though, or
// a daemon would shed its strikes by registering again; only a daemon
// off the ring starts with an empty one.
func (r *ring) add(addr string) *peer {
	m := &peer{kind: clientCache, addr: addr, id: pastry.HashString(addr), ledger: new(contribution)}
	m.free.Store(freeUnknown)
	r.mu.Lock()
	defer r.mu.Unlock()
	i := r.search(m.id)
	if i < len(r.members) && r.members[i].id == m.id {
		m.ledger = r.members[i].ledger
		r.members[i] = m
	} else {
		r.members = slices.Insert(r.members, i, m)
	}
	return m
}

// remove drops m (crash or deregistration) if it is still on the ring;
// a record its daemon's re-registration replaced is gone already, and
// the new one stays.
func (r *ring) remove(m *peer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i := r.index(m); i >= 0 {
		r.members = slices.Delete(r.members, i, i+1)
	}
}

// neighbours appends to dst the members next to m on the ring,
// successor then predecessor (one on a ring of two, none alone), whether
// or not m is still a member itself: the stand-in for the owner's leaf
// set, and so the diversion candidates (§4.3).
func (r *ring) neighbours(dst []*peer, m *peer) []*peer {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := len(r.members)
	if n == 0 {
		return dst
	}
	i := r.search(m.id)
	succ := i % n
	if r.members[succ].id == m.id {
		succ = (i + 1) % n
	}
	base := len(dst)
	for _, j := range [2]int{succ, (i + n - 1) % n} {
		if a := r.members[j]; a.id != m.id && (len(dst) == base || dst[base] != a) {
			dst = append(dst, a)
		}
	}
	return dst
}

// candidates appends to dst owner followed by its ring neighbours: the
// caches an object of owner's may be at, a diversion having placed it
// next door (§4.3), in the order to place it or to look for it.
func (r *ring) candidates(dst []*peer, owner *peer) []*peer {
	return r.neighbours(append(dst, owner), owner)
}

// owner returns the cache whose id is numerically closest to key (the
// destination client cache of §4.1), or nil on an empty ring.
func (r *ring) owner(key pastry.ID) *peer {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := len(r.members)
	if n == 0 {
		return nil
	}
	i := r.search(key)
	best := r.members[i%n]
	for _, j := range []int{i - 1, i, i + 1} {
		c := r.members[((j%n)+n)%n]
		if c.id.CloserToThan(key, best.id) {
			best = c
		}
	}
	return best
}

// mayFit reports whether a body of size bytes is worth sending to m
// with ifFree: m is still on the ring, and its last reported headroom
// takes the body or none is known.
func (r *ring) mayFit(m *peer, size int) bool {
	if free := m.free.Load(); free != freeUnknown && free < int64(size) {
		return false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.index(m) >= 0
}

// snapshot copies the member list (liveness sweep).
func (r *ring) snapshot() []*peer {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.Clone(r.members)
}

// size reports the number of registered caches.
func (r *ring) size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}
