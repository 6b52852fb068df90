package pastry

import "math"

// Proximity-aware routing.  Real Pastry exploits a proximity metric:
// among the many nodes eligible for a routing-table slot it keeps one
// that is close in the underlying network, which gives routes a small
// total distance ("low stretch") even though the id space is random.
// The paper leans on this property for its LAN-hop argument (§4.1):
// client caches in one corporate network are mutually near, so
// overlay hops are cheap.
//
// The simulation models the underlying network as a unit square with
// Euclidean distance.  With Config.ProximityAware set, every routing-
// table insertion prefers the proximally closer candidate; the overlay
// then reports the mean *stretch* of its routes — path distance over
// direct distance — which the tests show drops markedly versus
// proximity-oblivious tables.

// Coord is a node's position in the simulated network plane.
type Coord struct {
	X, Y float64
}

// DistanceTo is the Euclidean distance between two coordinates.
func (c Coord) DistanceTo(o Coord) float64 {
	dx, dy := c.X-o.X, c.Y-o.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Coord returns a node's network coordinate (zero if unknown).
func (o *Overlay) Coord(id ID) Coord {
	if n := o.nodes.Get(id); n != nil {
		return n.coord
	}
	return Coord{}
}

// closerTo builds the routing-table preference function for a node:
// candidate x displaces incumbent y when x is proximally closer to the
// owner.  Ties keep the incumbent (stability).
func (o *Overlay) closerTo(owner *Node) func(candidate, incumbent ID) bool {
	return func(candidate, incumbent ID) bool {
		return owner.coord.DistanceTo(o.Coord(candidate)) < owner.coord.DistanceTo(o.Coord(incumbent))
	}
}

// pathDistance sums the proximity lengths of a route's hops.
func pathDistance(path []*Node) float64 {
	total := 0.0
	for i := 1; i < len(path); i++ {
		total += path[i-1].coord.DistanceTo(path[i].coord)
	}
	return total
}
