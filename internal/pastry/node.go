package pastry

// Node is one Pastry overlay participant: its id, routing table, and
// leaf set.  Nodes are passive state holders; the Overlay drives the
// routing and membership protocols against them.  The leaf set and
// table are held by value, so a routing step reaches a side's slice
// from the node without another pointer.
type Node struct {
	id    ID
	leafs LeafSet
	table RoutingTable
	// coord is the node's position on the simulated network plane
	// (proximity.go), fixed when it joins.
	coord Coord
}

// NewNode creates a node with empty state.
func NewNode(id ID, b, leafSetSize int) *Node {
	return &Node{
		id:    id,
		leafs: *NewLeafSet(id, leafSetSize),
		table: *NewRoutingTable(id, b),
	}
}

// ID returns the node's identifier.
func (n *Node) ID() ID { return n.id }

// Table exposes the routing table (read-mostly; the overlay mutates it
// during joins and failure repair).
func (n *Node) Table() *RoutingTable { return &n.table }

// LeafSet exposes the leaf set.
func (n *Node) LeafSet() *LeafSet { return &n.leafs }

// learn records another node in whichever structures it fits.
func (n *Node) learn(x ID) {
	if x == n.id {
		return
	}
	n.table.Insert(x)
	n.leafs.Insert(x)
}

// forget removes a (failed) node from all local state.
func (n *Node) forget(x ID) {
	n.table.Remove(x)
	n.leafs.Remove(x)
}

// NextHop runs one step of the Pastry routing procedure for key and
// returns the next node to forward to, or final=true when this node is
// the destination.
//
// The procedure is the published one:
//  1. if key is within the leaf set's range, deliver to the numerically
//     closest leaf (possibly self);
//  2. otherwise forward to the routing-table entry sharing a longer
//     prefix with key;
//  3. otherwise (rare: empty slot) forward to any known node that is
//     numerically closer to key than this node and shares at least as
//     long a prefix.
func (n *Node) NextHop(key ID) (next ID, final bool) {
	if key == n.id {
		return ID{}, true
	}
	if dest, ok := n.leafs.Deliver(key); ok {
		if dest == n.id {
			return ID{}, true
		}
		return dest, false
	}
	if hop, ok := n.table.Lookup(key); ok {
		return hop, false
	}
	// Rare case: union of leaf set and routing table.  The choice is
	// the minimum of a total order, so neither the scan order, nor a
	// leaf listed on both sides, nor leaving out a candidate that
	// cannot qualify changes it.  That is what the table scan uses: an
	// entry in row r shares exactly r digits with this node, which
	// shares exactly myPrefix with the key.  Below myPrefix the entry
	// differs from the key at digit r (where the key agrees with this
	// node), so it shares r < myPrefix digits with the key and never
	// qualifies; from myPrefix on it agrees with this node, hence with
	// the key, on the first myPrefix digits and always qualifies.
	myPrefix := n.id.CommonPrefixLen(key, n.table.b)
	c := closest{key: key, id: n.id, dist: n.id.Distance(key)}
	for _, lf := range n.leafs.larger {
		if lf.id.CommonPrefixLen(key, n.table.b) >= myPrefix {
			c.offer(lf.id)
		}
	}
	for _, lf := range n.leafs.smaller {
		if lf.id.CommonPrefixLen(key, n.table.b) >= myPrefix {
			c.offer(lf.id)
		}
	}
	n.table.offerRows(myPrefix, &c)
	if c.id == n.id {
		return ID{}, true // no better node known: deliver here
	}
	return c.id, false
}
