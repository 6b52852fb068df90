package p2p

import (
	"fmt"
	"slices"

	"webcache/internal/pastry"
	"webcache/internal/trace"
)

// FailClient crashes client i: its overlay node disappears and every
// object it physically stored is lost.  Objects it had diverted to
// neighbours become unreachable (the pointers died with it) and are
// discarded by their holders.  The returned list names every object
// the P2P cache lost, so the proxy can scrub its lookup directory.
func (c *Cluster) FailClient(i int) ([]trace.ObjectID, error) {
	if i < 0 || i >= len(c.clientIDs) {
		return nil, fmt.Errorf("p2p: client index %d out of range", i)
	}
	if c.dead[i] {
		return nil, fmt.Errorf("p2p: client %d already failed", i)
	}
	id := c.clientIDs[i]
	node := c.nodes.Get(id)
	c.dead[i] = true
	if at, ok := slices.BinarySearch(c.live, i); ok {
		c.live = slices.Delete(c.live, at, at+1)
	}
	c.overlay.Fail(id)
	c.nodes.Delete(id)

	var lost []trace.ObjectID
	// Objects it held on behalf of others: scrub the owners' pointers.
	for obj, ownerID := range node.heldFor {
		if owner := c.nodes.Get(ownerID); owner != nil {
			delete(owner.pointerTo, obj)
		}
	}
	// Everything in its cache is gone, and its free space leaves the
	// cluster's tally.
	for _, obj := range node.cache.Objects() {
		c.remove(node, obj)
		lost = append(lost, obj)
	}
	c.free -= node.cache.Capacity() - node.cache.Used()
	// Objects it diverted elsewhere are orphaned: the holder discards
	// them (their DHT owner no longer knows where they are).
	for obj, holderID := range node.pointerTo {
		if holder := c.nodes.Get(holderID); holder != nil {
			if _, ok := c.remove(holder, obj); ok {
				delete(holder.heldFor, obj)
				lost = append(lost, obj)
			}
		}
	}
	c.stats.LostOnFailure += len(lost)
	return lost, nil
}

// JoinClient adds a brand-new client cache to the cluster and re-homes
// any objects whose DHT ownership moves to it (the PAST-style handoff
// that keeps lookups routable after membership changes).  It returns
// the new client's index.
func (c *Cluster) JoinClient() (int, error) {
	idx := len(c.clientIDs)
	var id pastry.ID
	for attempt := 0; ; attempt++ {
		id = pastry.HashString(fmt.Sprintf("client/%d/new/%d/%d", c.cfg.Seed, idx, attempt))
		err := c.overlay.Join(id)
		if err == nil {
			break
		}
		if err != pastry.ErrDuplicateID {
			return 0, err
		}
	}
	n := newClientNode(id, c.cfg.PerClientCapacity, c.cfg.WrapCache)
	c.nodes.Put(id, n)
	c.free += n.cache.Capacity()
	c.clientIDs = append(c.clientIDs, id)
	c.dead = append(c.dead, false)
	c.live = append(c.live, idx)

	// Handoff: leaf-set neighbours transfer objects the new node now
	// owns.  Diverted placements keep their pointers (the pointer
	// owner re-homes instead).
	node, _ := c.overlay.Node(id)
	for _, leafID := range node.LeafSet().Members() {
		peer := c.nodes.Get(leafID)
		if peer == nil {
			continue
		}
		for _, obj := range peer.cache.Objects() {
			if _, held := peer.heldFor[obj]; held {
				continue // diverted storage stays with its holder
			}
			owner, _ := c.overlay.Owner(c.objectKey(obj))
			if owner != id {
				continue
			}
			e, _ := c.remove(peer, obj)
			c.stats.Messages++ // transfer message
			if n.hasFreeSpace(e.Size) && !n.cache.Contains(obj) {
				c.add(n, e)
				c.stats.Handoffs++
			} else {
				// New node full, or it already took a copy from another
				// peer: treat as an eviction.
				c.stats.Evictions++
			}
		}
		// Pointers whose object key now belongs to the new node move
		// with the ownership.
		for obj, holder := range peer.pointerTo {
			owner, _ := c.overlay.Owner(c.objectKey(obj))
			if owner != id {
				continue
			}
			delete(peer.pointerTo, obj)
			n.pointerTo[obj] = holder
			if h := c.nodes.Get(holder); h != nil {
				h.heldFor[obj] = id
			}
			c.stats.Messages++
			c.stats.Handoffs++
		}
	}
	return idx, nil
}

// IsDead reports whether client i has failed.
func (c *Cluster) IsDead(i int) bool {
	return i < 0 || i >= len(c.dead) || c.dead[i]
}
