package p2p

import (
	"webcache/internal/cache"
	"webcache/internal/pastry"
	"webcache/internal/trace"
)

// Receipt reports the outcome of a pass-down store to the proxy, which
// uses it to maintain its lookup directory (§4.3: "A issues a store
// receipt of d1 to the local proxy, ... along with the information
// about the eviction of d2").
type Receipt struct {
	// Stored is the object that was passed down.
	Stored trace.ObjectID
	// StoredOK reports whether the P2P cache kept it (an object larger
	// than a whole client cache is dropped).
	StoredOK bool
	// Diverted reports the object was placed at a leaf-set neighbour.
	Diverted bool
	// Evicted lists objects the client caches discarded to make room;
	// the proxy deletes their directory entries.  It is the cluster's
	// scratch, valid until its next StoreEvicted.
	Evicted []trace.ObjectID
	// Hops is the Pastry routing distance the object travelled.
	Hops int
	// Messages is the number of overlay/control messages exchanged.
	Messages int
}

// StoreEvicted implements the Hier-GD pass-down (Figure 1 of the
// paper) with object diversion:
//
//	(1) objectId := SHA-1(d1)
//	(2) route d1 to destination client cache A
//	(3) if A has free space: A stores d1, receipt(add d1)
//	(7) else if a leaf B has free space: B stores, A keeps a pointer,
//	    receipt(add d1)
//	(12) else A runs greedy-dual: stores d1, evicts d2,
//	    receipt(add d1, del d2)
//
// fromClient is the client whose HTTP response carried the object when
// piggybacking is enabled (§4.4): the route then starts at that
// client's node and the dedicated proxy->client connection is saved.
// With piggyback=false the proxy hands the object to an arbitrary
// client over a dedicated connection (one extra message).
func (c *Cluster) StoreEvicted(e cache.Entry, fromClient int, piggyback bool) (Receipt, error) {
	r := Receipt{Stored: e.Obj}
	start, err := c.startNode(fromClient)
	if err != nil {
		return r, err
	}
	if piggyback {
		c.stats.PiggybackSave++
	} else {
		r.Messages++ // dedicated proxy->client transfer
	}
	a, hops, err := c.route(start, e.Obj)
	if err != nil {
		return r, err
	}
	c.storeAt(a, e, hops, &r)
	return r, nil
}

// storeAt is a pass-down's work once its route of hops reached a: the
// steps of StoreEvicted from (3) on, recorded in r.
func (c *Cluster) storeAt(a *clientNode, e cache.Entry, hops int, r *Receipt) {
	c.countStore(hops, r)
	// Refresh rather than duplicate if the P2P cache already holds it
	// (possible after directory false negatives or churn handoffs).
	if a.cache.Access(e.Obj) {
		r.StoredOK = true
		return
	}
	if holder, ok := a.pointerTo[e.Obj]; ok {
		if b := c.nodes.Get(holder); b != nil && b.cache.Access(e.Obj) {
			r.StoredOK = true
			return
		}
		delete(a.pointerTo, e.Obj) // stale pointer
	}
	c.placeAt(a, e, r)
}

// countStore books a store's route of hops and its receipt.
func (c *Cluster) countStore(hops int, r *Receipt) {
	r.Hops = hops
	r.Messages += hops
	c.stats.RouteHops += hops
	c.stats.Stores++

	r.Messages++ // store receipt back to the proxy
	c.stats.Messages += r.Messages
}

// placeAt is storeAt past its probe, for an object known to be neither
// at a nor behind a pointer of a's: free space at a, else a diversion,
// else replacement at a.
func (c *Cluster) placeAt(a *clientNode, e cache.Entry, r *Receipt) {
	if uint64(e.Size) > a.cache.Capacity() {
		// Larger than a whole client cache: cannot be passed down.
		return
	}

	if a.hasFreeSpace(e.Size) {
		c.add(a, e)
		r.StoredOK = true
		return
	}

	// Object diversion: find a leaf-set neighbour with free space, if
	// the whole cluster has that much (see Cluster.free).
	if !c.cfg.DisableDiversion && c.free >= uint64(e.Size) {
		for _, leafID := range c.leafCandidates(a) {
			b := c.nodes.Get(leafID)
			if b == nil || !b.hasFreeSpace(e.Size) || b.cache.Contains(e.Obj) {
				continue
			}
			c.add(b, e)
			b.heldFor[e.Obj] = a.id
			a.pointerTo[e.Obj] = b.id
			r.StoredOK = true
			r.Diverted = true
			msgs := 2 // A->B store + B->A ack
			r.Messages += msgs
			c.stats.Messages += msgs
			c.stats.Diversions++
			return
		}
	}

	// No free space anywhere in the leaf set: local greedy-dual
	// replacement at A.
	evicted := c.add(a, e)
	r.StoredOK = true
	c.stats.Replacements++
	c.evictedBuf = c.evictedBuf[:0]
	for _, ev := range evicted {
		c.dropEvicted(a, ev.Obj)
		c.evictedBuf = append(c.evictedBuf, ev.Obj)
		c.stats.Evictions++
	}
	r.Evicted = c.evictedBuf
}

// leafCandidates lists a's live leaf-set members in the leaf set's
// deterministic order for diversion.  The list is the cluster's
// scratch, valid until the next call.
func (c *Cluster) leafCandidates(a *clientNode) []pastry.ID {
	node, ok := c.overlay.Node(a.id)
	if !ok {
		return nil
	}
	c.leafBuf = node.LeafSet().AppendMembers(c.leafBuf[:0])
	return c.leafBuf
}

// dropEvicted cleans up the bookkeeping when node holder discards obj:
// if it was held on behalf of another owner, the owner's pointer is
// removed (one message).
func (c *Cluster) dropEvicted(holder *clientNode, obj trace.ObjectID) {
	if ownerID, ok := holder.heldFor[obj]; ok {
		delete(holder.heldFor, obj)
		if owner := c.nodes.Get(ownerID); owner != nil {
			delete(owner.pointerTo, obj)
			c.stats.Messages++ // holder -> owner pointer invalidation
		}
	}
}
