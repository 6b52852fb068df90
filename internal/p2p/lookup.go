package p2p

import (
	"webcache/internal/cache"
	"webcache/internal/trace"
)

// LookupResult reports a P2P lookup outcome.
type LookupResult struct {
	Found bool
	Entry cache.Entry
	// ViaPointer marks a hit served through a diversion pointer (one
	// extra LAN hop).
	ViaPointer bool
	// Displaced lists objects a hot-object replica pushed out of a
	// neighbour's cache; the proxy scrubs them from its directory.
	Displaced []trace.ObjectID
	// Hops is the Pastry routing distance (plus one for a pointer hop).
	Hops int
	// Messages is the overlay message count for the operation.
	Messages int
}

// Lookup fetches obj from the P2P client cache after the proxy's
// directory said it may be there (§4.2).  The route starts at the
// requesting client's node (the proxy redirects the client).  A hit
// refreshes the client cache's greedy-dual state.
//
// A miss (directory false positive or object lost to churn) is
// reported with Found=false; the proxy then falls back to cooperating
// proxies or the server and repairs its directory.
func (c *Cluster) Lookup(obj trace.ObjectID, fromClient int) (LookupResult, error) {
	var r LookupResult
	start, err := c.startNode(fromClient)
	if err != nil {
		return r, err
	}
	destID, hops, err := c.overlay.RouteFrom(start, c.objectKey(obj))
	if err != nil {
		return r, err
	}
	r.Hops = hops
	r.Messages = hops + 1 // + response back to the client
	c.stats.Lookups++
	c.stats.RouteHops += hops

	a := c.nodes[destID]
	if e, ok := a.cache.Peek(obj); ok {
		a.cache.Access(obj)
		// Hot-object replication (extension): the owner may redirect
		// this serve to one of its replicas to spread load.
		server, extraHops, extraMsgs, displaced := c.maybeServeFromReplica(a, obj)
		server.served++
		r.Hops += extraHops
		r.Messages += extraMsgs
		r.Displaced = displaced
		c.stats.RouteHops += extraHops
		r.Found = true
		r.Entry = e
		c.stats.LookupHits++
		c.stats.Messages += r.Messages
		return r, nil
	}
	if holder, ok := a.pointerTo[obj]; ok {
		if b := c.nodes[holder]; b != nil {
			if e, ok := b.cache.Peek(obj); ok {
				b.cache.Access(obj)
				b.served++
				r.Found = true
				r.Entry = e
				r.ViaPointer = true
				r.Hops++
				r.Messages += 2 // A->B redirect + B response
				c.stats.LookupHits++
				c.stats.PointerHits++
				c.stats.RouteHops++
				c.stats.Messages += r.Messages
				return r, nil
			}
		}
		delete(a.pointerTo, obj) // stale pointer cleanup
	}
	c.stats.Messages += r.Messages
	return r, nil
}

// PushFetch serves a cooperating proxy's request for obj (§4.5): the
// local proxy routes a push request to the destination client cache,
// which opens a connection to the proxy and pushes the object up; the
// proxy forwards it to the cooperating proxy.  Client caches never
// accept incoming connections (firewall constraint), which is why the
// object is pushed rather than pulled.
func (c *Cluster) PushFetch(obj trace.ObjectID) (LookupResult, error) {
	r, err := c.Lookup(obj, -1)
	if err != nil {
		return r, err
	}
	if r.Found {
		// push-up connection to the proxy + forward to the peer proxy
		r.Messages += 2
		c.stats.Messages += 2
		c.stats.Pushes++
	}
	return r, nil
}

// Contains reports ground-truth presence of obj anywhere in the
// cluster (any client cache, owned or diverted).  Used by tests and by
// upper-bound schemes; the proxy's directory is the deployable
// equivalent.
func (c *Cluster) Contains(obj trace.ObjectID) bool {
	for _, n := range c.nodes {
		if n.cache.Contains(obj) {
			return true
		}
	}
	return false
}

// TotalCached returns the number of objects held across all live
// client caches.
func (c *Cluster) TotalCached() int {
	total := 0
	for _, n := range c.nodes {
		total += n.cache.Len()
	}
	return total
}

// UsedCapacity returns the aggregate used size across live caches.
func (c *Cluster) UsedCapacity() uint64 {
	var total uint64
	for _, n := range c.nodes {
		total += n.cache.Used()
	}
	return total
}
