package p2p

import (
	"webcache/internal/cache"
	"webcache/internal/pastry"
	"webcache/internal/trace"
)

// LookupResult reports a P2P lookup outcome.
type LookupResult struct {
	Found bool
	// ViaPointer marks a hit served through a diversion pointer (one
	// extra LAN hop).
	ViaPointer bool
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
func (c *Cluster) Lookup(obj trace.ObjectID, fromClient int) (r LookupResult, err error) {
	start, err := c.startNode(fromClient)
	if err != nil {
		return r, err
	}
	a, hops, err := c.route(start, obj)
	if err != nil {
		return r, err
	}
	c.lookupAt(a, obj, hops, &r)
	return r, nil
}

// LookupOrStore is one request of the home-store model (Squirrel): it
// routes obj from the requesting client to its home node once, looks
// it up there, and on a miss stores e at that same home, as the
// requester does after fetching the object from the origin.  The
// stats are those of Lookup followed by StoreEvicted with piggyback
// set, the store's route hops and messages included; the receipt is
// meaningful only on a miss.
//
// Lookup and StoreEvicted each pick a start node, so a dead requester
// draws twice from the fallback rng here too, and the object is routed
// again only when the second draw starts elsewhere.  From the same
// start the second route would repeat the first: a route's lazy
// repairs change only the node that makes them, before it picks its
// next hop, so every node on the path picks the same hop again.
func (c *Cluster) LookupOrStore(e cache.Entry, fromClient int) (lr LookupResult, r Receipt, err error) {
	r.Stored = e.Obj
	start, err := c.startNode(fromClient)
	if err != nil {
		return lr, r, err
	}
	a, hops, err := c.route(start, e.Obj)
	if err != nil {
		return lr, r, err
	}
	c.lookupAt(a, e.Obj, hops, &lr)
	if lr.Found {
		return lr, r, nil
	}
	again, err := c.startNode(fromClient)
	if err != nil {
		return lr, r, err
	}
	c.stats.PiggybackSave++
	if again == start {
		// The store's route is the lookup's, and lookupAt has probed a and
		// its pointer for the object and dropped a stale pointer: the store
		// starts at the placement.
		c.countStore(hops, &r)
		c.placeAt(a, e, &r)
		return lr, r, nil
	}
	if a, hops, err = c.route(again, e.Obj); err != nil {
		return lr, r, err
	}
	c.storeAt(a, e, hops, &r)
	return lr, r, nil
}

// route routes obj's key from start to its destination client.
func (c *Cluster) route(start pastry.ID, obj trace.ObjectID) (*clientNode, int, error) {
	dest, hops, err := c.overlay.RouteFrom(start, c.objectKey(obj))
	if err != nil {
		return nil, 0, err
	}
	return c.nodes.Get(dest), hops, nil
}

// lookupAt is a lookup's work once its route of hops reached a,
// recorded in r.
func (c *Cluster) lookupAt(a *clientNode, obj trace.ObjectID, hops int, r *LookupResult) {
	r.Hops, r.Messages = hops, hops+1 // + response back to the client
	c.stats.Lookups++
	c.stats.RouteHops += hops

	if a.cache.Access(obj) {
		a.served++
		r.Found = true
		c.stats.LookupHits++
		c.stats.Messages += r.Messages
		return
	}
	if holder, ok := a.pointerTo[obj]; ok {
		if b := c.nodes.Get(holder); b != nil && b.cache.Access(obj) {
			b.served++
			r.Found = true
			r.ViaPointer = true
			r.Hops++
			r.Messages += 2 // A->B redirect + B response
			c.stats.LookupHits++
			c.stats.PointerHits++
			c.stats.RouteHops++
			c.stats.Messages += r.Messages
			return
		}
		delete(a.pointerTo, obj) // stale pointer cleanup
	}
	c.stats.Messages += r.Messages
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
	found := false
	c.nodes.Range(func(n *clientNode) bool {
		found = n.cache.Contains(obj)
		return !found
	})
	return found
}

// TotalCached returns the number of objects held across all live
// client caches.
func (c *Cluster) TotalCached() int {
	total := 0
	c.nodes.Range(func(n *clientNode) bool {
		total += n.cache.Len()
		return true
	})
	return total
}

// UsedCapacity returns the aggregate used size across live caches.
func (c *Cluster) UsedCapacity() uint64 {
	var total uint64
	c.nodes.Range(func(n *clientNode) bool {
		total += n.cache.Used()
		return true
	})
	return total
}
