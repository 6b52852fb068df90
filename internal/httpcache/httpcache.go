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
// largest body the daemon takes for any key without evicting, the ring
// keeps the last figure per member, and pass-down picks owner,
// neighbour or forced store from it.  The figure is the daemon's
// capacity less its resident bytes: one policy holds every key, so
// whatever fits for one key fits for all.
package httpcache

import (
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

// keyOf derives the 128-bit objectId of a URL (§4.1: SHA-1 of the
// URL).
func keyOf(url string) pastry.ID { return pastry.HashString(url) }

// ring is a consistent-hash ring of registered client caches: the
// proxy-side stand-in for DHT routing (see the package comment).
type ring struct {
	mu    sync.RWMutex
	ids   []pastry.ID // sorted
	addrs map[pastry.ID]string
	// free holds, for every member, the headroom its latest /store reply
	// reported (FreeHeader), or freeUnknown before the first one.
	free map[string]int64
}

// freeUnknown marks a member whose headroom has not been reported
// since it (re-)registered; pass-down probes it with a trial store.
const freeUnknown = -1

func newRing() *ring {
	return &ring{addrs: make(map[pastry.ID]string), free: make(map[string]int64)}
}

// add registers a cache daemon; its cacheId is the hash of its
// address.  Returns the cacheId.  A daemon that registers again has
// restarted, so whatever headroom it last reported is forgotten.
func (r *ring) add(addr string) pastry.ID {
	id := pastry.HashString(addr)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.free[addr] = freeUnknown
	if _, dup := r.addrs[id]; !dup {
		i := sort.Search(len(r.ids), func(i int) bool { return !r.ids[i].Less(id) })
		r.ids = append(r.ids, pastry.ID{})
		copy(r.ids[i+1:], r.ids[i:])
		r.ids[i] = id
		r.addrs[id] = addr
	}
	return id
}

// remove drops a daemon (crash or deregistration).
func (r *ring) remove(addr string) {
	id := pastry.HashString(addr)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.addrs[id]; !ok {
		return
	}
	delete(r.addrs, id)
	delete(r.free, addr)
	i := sort.Search(len(r.ids), func(i int) bool { return !r.ids[i].Less(id) })
	if i < len(r.ids) && r.ids[i] == id {
		r.ids = append(r.ids[:i], r.ids[i+1:]...)
	}
}

// neighbours returns the members next to addr on the ring, successor
// then predecessor (one address on a ring of two, none alone), whether
// or not addr is still a member itself: the stand-in for the owner's
// leaf set, and so the diversion candidates (§4.3).
func (r *ring) neighbours(addr string) []string {
	id := pastry.HashString(addr)
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := len(r.ids)
	if n == 0 {
		return nil
	}
	i := sort.Search(n, func(i int) bool { return !r.ids[i].Less(id) })
	succ := i % n
	if r.ids[succ] == id {
		succ = (i + 1) % n
	}
	var out []string
	for _, j := range [2]int{succ, (i + n - 1) % n} {
		if a := r.addrs[r.ids[j]]; a != addr && (len(out) == 0 || out[0] != a) {
			out = append(out, a)
		}
	}
	return out
}

// candidates returns owner followed by its ring neighbours: the caches
// an object of owner's may be at, a diversion having placed it next
// door (§4.3), in the order to place it or to look for it.
func (r *ring) candidates(owner string) []string {
	return append([]string{owner}, r.neighbours(owner)...)
}

// owner returns the address of the cache whose id is numerically
// closest to key (the destination client cache of §4.1).
func (r *ring) owner(key pastry.ID) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.ids) == 0 {
		return "", false
	}
	i := sort.Search(len(r.ids), func(i int) bool { return !r.ids[i].Less(key) })
	best := r.ids[i%len(r.ids)]
	for _, j := range []int{i - 1, i, i + 1} {
		c := r.ids[((j%len(r.ids))+len(r.ids))%len(r.ids)]
		if c.CloserToThan(key, best) {
			best = c
		}
	}
	return r.addrs[best], true
}

// noteFree records the headroom a member's /store reply reported; a
// reply that outlives its sender's membership is dropped.
func (r *ring) noteFree(addr string, free int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, member := r.free[addr]; member {
		r.free[addr] = free
	}
}

// mayFit reports whether a body of size bytes is worth sending to addr
// with ifFree: its last reported headroom takes it, or none is known.
func (r *ring) mayFit(addr string, size int) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	free, member := r.free[addr]
	return member && (free == freeUnknown || free >= int64(size))
}

// addresses snapshots the registered cache addresses (liveness sweep).
func (r *ring) addresses() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.ids))
	for _, id := range r.ids {
		out = append(out, r.addrs[id])
	}
	return out
}

// size reports the number of registered caches.
func (r *ring) size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.ids)
}
