package pastry

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
)

// Config parameterizes an overlay.
type Config struct {
	// B is the digit width in bits (Pastry's b); default 4, so routing
	// works in hex digits and tables have 16 columns.
	B int
	// LeafSetSize is Pastry's l; default 16.
	LeafSetSize int
	// Seed drives bootstrap selection and any randomized choices so
	// overlay construction is reproducible.
	Seed int64
	// ProximityAware makes routing tables prefer proximally close
	// entries over incumbents, as real Pastry does; routes then have
	// low stretch over the simulated network plane.
	ProximityAware bool
}

// Overlay is a simulated Pastry network: the set of live nodes plus
// the membership protocols (join, leave, fail) and the router.
//
// The simulation delivers messages instantly but routes them through
// each node's real routing state, so hop counts, routing-table content,
// and failure behaviour are faithful to the protocol; only network
// proximity (which real Pastry uses to pick among equally good table
// entries) is unmodeled.
type Overlay struct {
	b              int
	l              int
	nodes          IDTable[Node]
	ids            []ID // sorted ascending: ground truth ring membership
	rng            *rand.Rand
	proximityAware bool

	// Routing telemetry.
	routes    int
	hopsTotal int
	hopsMax   int
	repairs   int // dead entries discovered and purged while routing
	// Stretch telemetry: cumulative path distance and direct distance
	// over the simulated network plane.
	pathDist   float64
	directDist float64

	// Scratch reused across calls, so routing, repair and joins do
	// not allocate: the path of the route in progress; for the repair
	// or join in progress the snapshot of a node's members and the ids
	// already offered to it; and the state lists a join or departure
	// walks.
	path    []*Node
	members []ID
	offered idSet
	known   []ID
}

// idSet is a set of ids that empties in O(1): a slot holds a member
// only while its stamp is the current epoch.  Open addressing on the
// low bits, linear probing; the table doubles before it is half full.
type idSet struct {
	ids   []ID
	stamp []uint64
	epoch uint64
	n     int // members in the current epoch
}

// newIDSet sizes the set for n members at a time before it first grows.
func newIDSet(n int) idSet {
	size := 4
	for size < 2*n {
		size <<= 1
	}
	return idSet{ids: make([]ID, size), stamp: make([]uint64, size), epoch: 1}
}

func (s *idSet) reset() { s.epoch, s.n = s.epoch+1, 0 }

// add inserts x and reports whether it was absent.
func (s *idSet) add(x ID) bool {
	mask := uint64(len(s.ids) - 1)
	i := x.lo & mask
	for s.stamp[i] == s.epoch {
		if s.ids[i] == x {
			return false
		}
		i = (i + 1) & mask
	}
	if 2*(s.n+1) > len(s.ids) {
		s.grow()
		return s.add(x)
	}
	s.ids[i], s.stamp[i] = x, s.epoch
	s.n++
	return true
}

// grow doubles the table and re-inserts the current members.
func (s *idSet) grow() {
	old, stamp, epoch := s.ids, s.stamp, s.epoch
	*s = newIDSet(len(old))
	for i, x := range old {
		if stamp[i] == epoch {
			s.add(x)
		}
	}
}

// New creates an empty overlay.
func New(cfg Config) (*Overlay, error) {
	if cfg.B == 0 {
		cfg.B = 4
	}
	if cfg.LeafSetSize == 0 {
		cfg.LeafSetSize = DefaultLeafSetSize
	}
	if err := ValidateB(cfg.B); err != nil {
		return nil, err
	}
	if cfg.LeafSetSize < 2 || cfg.LeafSetSize%2 != 0 {
		return nil, fmt.Errorf("pastry: leaf set size must be even and >= 2 (got %d)", cfg.LeafSetSize)
	}
	return &Overlay{
		b:              cfg.B,
		l:              cfg.LeafSetSize,
		rng:            rand.New(rand.NewSource(cfg.Seed)),
		proximityAware: cfg.ProximityAware,
		// A repair hears at most l ids from each of at most l members;
		// a join on a large ring hears more, and the set grows.
		offered: newIDSet(cfg.LeafSetSize * cfg.LeafSetSize),
	}, nil
}

// B returns the overlay digit width.
func (o *Overlay) B() int { return o.b }

// LeafSetSize returns the configured leaf-set size l.
func (o *Overlay) LeafSetSize() int { return o.l }

// Len returns the number of live nodes.
func (o *Overlay) Len() int { return len(o.ids) }

// Node returns the live node with the given id.
func (o *Overlay) Node(id ID) (*Node, bool) {
	n := o.nodes.Get(id)
	return n, n != nil
}

// IDs returns the sorted live node ids (shared slice; do not mutate).
func (o *Overlay) IDs() []ID { return o.ids }

// ErrDuplicateID reports a join with an id already present.
var ErrDuplicateID = errors.New("pastry: node id already in overlay")

// ErrEmptyOverlay reports an operation requiring at least one node.
var ErrEmptyOverlay = errors.New("pastry: overlay has no nodes")

// ErrUnknownStart reports a route asked to start at an id that is not
// a live node.
var ErrUnknownStart = errors.New("pastry: route start is not a live node")

func (o *Overlay) insertID(id ID) {
	i := sort.Search(len(o.ids), func(i int) bool { return !o.ids[i].Less(id) })
	o.ids = append(o.ids, ID{})
	copy(o.ids[i+1:], o.ids[i:])
	o.ids[i] = id
}

func (o *Overlay) removeID(id ID) {
	i := sort.Search(len(o.ids), func(i int) bool { return !o.ids[i].Less(id) })
	if i < len(o.ids) && o.ids[i] == id {
		o.ids = append(o.ids[:i], o.ids[i+1:]...)
	}
}

// Join adds a node with the given id using the Pastry join protocol:
// the join message routes from a bootstrap node to the current owner Z
// of the new id; the new node takes row i of its routing table from the
// i-th node on the route and its leaf set from Z, then announces itself
// to every node it has learned of.
func (o *Overlay) Join(id ID) error {
	if o.nodes.Get(id) != nil {
		return ErrDuplicateID
	}
	x := NewNode(id, o.b, o.l)
	x.coord = Coord{X: o.rng.Float64(), Y: o.rng.Float64()}
	if o.proximityAware {
		x.table.SetPreference(o.closerTo(x))
	}
	if len(o.ids) == 0 {
		o.nodes.Put(id, x)
		o.insertID(id)
		return nil
	}
	boot := o.ids[o.rng.Intn(len(o.ids))]
	_, _, path := o.routeFrom(boot, id)
	// x hears most ids many times over: the path's rows, Z's leaf set
	// and every known node's leaf set overlap.  Each id is offered to x
	// once, which is exact because nothing forgets on x during a join
	// (the route's lazy repairs end before the first offer).  As in
	// repairLeafSet, x's state then only fills up: an id x holds is a
	// duplicate, and an id x refused is refused again, since a full
	// leaf side's farthest arc only shrinks and an occupied table slot
	// only takes a strictly nearer node, by coordinates that stay fixed
	// while x joins.
	o.offered.reset()
	// Routing-table rows from the nodes along the path: node path[i]
	// shares (at least) i digits of prefix handling, so its row i is a
	// valid row i for x.
	for i, n := range path {
		o.known = n.table.appendRow(o.known[:0], i)
		for _, e := range o.known {
			o.offer(x, e)
		}
		o.offer(x, n.id)
	}
	// Leaf set from Z, the numerically closest existing node.
	z := path[len(path)-1]
	o.members = z.leafs.AppendMembers(o.members[:0])
	for _, e := range o.members {
		o.offer(x, e)
	}
	o.offer(x, z.id)

	o.nodes.Put(id, x)
	o.insertID(id)

	// Announce: everyone x knows learns x, and x pulls their leaf
	// members too (Pastry's state exchange on join).
	o.known = x.table.appendEntries(o.known[:0])
	o.known = x.leafs.AppendMembers(o.known)
	for _, t := range o.known {
		if n := o.nodes.Get(t); n != nil {
			n.learn(id)
			o.members = n.leafs.AppendMembers(o.members[:0])
			for _, e := range o.members {
				o.offer(x, e)
			}
		}
	}
	return nil
}

// offer has the joining node x learn e unless e was offered to it
// already in this join.
func (o *Overlay) offer(x *Node, e ID) {
	if o.offered.add(e) {
		x.learn(e)
	}
}

// JoinN joins count nodes with ids derived from the seed namespace,
// returning their ids.  Convenience for building client clusters.
func (o *Overlay) JoinN(count int, namespace string) ([]ID, error) {
	ids := make([]ID, 0, count)
	for i := 0; len(ids) < count; i++ {
		id := HashString(fmt.Sprintf("%s/%d", namespace, i))
		if err := o.Join(id); err != nil {
			if errors.Is(err, ErrDuplicateID) {
				continue
			}
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// Fail abruptly removes a node (crash).  Remaining nodes discover the
// failure lazily while routing; neighbours repair their leaf sets
// immediately, as the Pastry failure protocol does when keep-alives
// stop.
func (o *Overlay) Fail(id ID) bool {
	n := o.nodes.Get(id)
	if n == nil {
		return false
	}
	o.nodes.Delete(id)
	o.removeID(id)
	// Leaf-set neighbours notice quickly (keep-alive) and repair.
	o.known = n.leafs.AppendMembers(o.known[:0])
	for _, m := range o.known {
		if peer := o.nodes.Get(m); peer != nil {
			peer.forget(id)
			o.repairLeafSet(peer)
		}
	}
	return true
}

// Leave gracefully removes a node: it notifies everything in its state.
func (o *Overlay) Leave(id ID) bool {
	n := o.nodes.Get(id)
	if n == nil {
		return false
	}
	o.nodes.Delete(id)
	o.removeID(id)
	o.known = n.table.appendEntries(o.known[:0])
	o.known = n.leafs.AppendMembers(o.known)
	for _, t := range o.known {
		if peer := o.nodes.Get(t); peer != nil {
			peer.forget(id)
			o.repairLeafSet(peer)
		}
	}
	return true
}

// repairLeafSet refills a node's leaf set by pulling the leaf sets of
// its current members (the published repair procedure: ask the live
// node with the largest index on the side of the failed node).
//
// Neighbouring leaf sets overlap almost entirely, so most of what the
// members offer has been offered already.  Between two forgets a
// second offer of an id changes nothing — state only fills up, and an
// id refused by a full side or an occupied slot is refused again — so
// each id is looked at once.  A forget frees a place that an id
// refused earlier may now take, and the memory starts over.
func (o *Overlay) repairLeafSet(n *Node) {
	o.members = n.leafs.AppendMembers(o.members[:0])
	o.offered.reset()
	pull := func(side []leaf) {
		for _, lf := range side {
			if !o.offered.add(lf.id) {
				continue
			}
			if o.nodes.Get(lf.id) != nil {
				n.learn(lf.id)
			}
		}
	}
	for _, m := range o.members {
		peer := o.nodes.Get(m)
		if peer == nil {
			n.forget(m)
			o.offered.reset()
			continue
		}
		pull(peer.leafs.larger)
		pull(peer.leafs.smaller)
	}
}

// maxRouteHops bounds a single route to catch routing loops: prefix
// routing can take at most one hop per digit plus leaf-set/rare-case
// slack.
func (o *Overlay) maxRouteHops() int { return IDBits/o.b + o.l + 8 }

// RouteFrom routes key from a specific start node.  It returns the
// destination node id and the hop count (0 when start owns the key),
// or ErrUnknownStart when start is not a live node.  Dead routing
// entries encountered on the way are purged (lazy repair) and routing
// continues.
func (o *Overlay) RouteFrom(start ID, key ID) (ID, int, error) {
	dest, hops, path := o.routeFrom(start, key)
	if path == nil {
		return ID{}, 0, ErrUnknownStart
	}
	o.routes++
	o.hopsTotal += hops
	if hops > o.hopsMax {
		o.hopsMax = hops
	}
	if hops > 0 {
		o.pathDist += pathDistance(path)
		o.directDist += path[0].coord.DistanceTo(o.nodes.Get(dest).coord)
	}
	return dest, hops, nil
}

// routeFrom is the router: destination, hops, and the nodes visited
// (start and destination included).  The path is the overlay's
// scratch, good until the next route; it is nil, and nothing is
// routed, when start is not a live node.
func (o *Overlay) routeFrom(start ID, key ID) (ID, int, []*Node) {
	cur := o.nodes.Get(start)
	if cur == nil {
		return ID{}, 0, nil
	}
	o.path = append(o.path[:0], cur)
	hops := 0
	for limit := o.maxRouteHops(); limit >= 0; limit-- {
		next, final := cur.NextHop(key)
		if final {
			return cur.id, hops, o.path
		}
		nextNode := o.nodes.Get(next)
		if nextNode == nil {
			// Lazy failure discovery: purge and retry from the same
			// node; its next-best option takes over.
			cur.forget(next)
			o.repairLeafSet(cur)
			o.repairs++
			continue
		}
		cur = nextNode
		hops++
		o.path = append(o.path, cur)
	}
	// Routing loop safety valve: deliver at the numerically closest
	// node among those visited (should be unreachable; tests assert
	// loops never happen).
	best := start
	for _, p := range o.path {
		if p.id.CloserToThan(key, best) {
			best = p.id
		}
	}
	return best, hops, o.path
}

// Route routes key from a uniformly random live node, as a client
// contacting the overlay would.
func (o *Overlay) Route(key ID) (ID, int, error) {
	if len(o.ids) == 0 {
		return ID{}, 0, ErrEmptyOverlay
	}
	start := o.ids[o.rng.Intn(len(o.ids))]
	return o.RouteFrom(start, key)
}

// Owner returns the ground-truth owner of key: the live node whose id
// is numerically closest (ties to the smaller id).  Tests compare
// Route's destination to this.
func (o *Overlay) Owner(key ID) (ID, bool) {
	if len(o.ids) == 0 {
		return ID{}, false
	}
	i := sort.Search(len(o.ids), func(i int) bool { return !o.ids[i].Less(key) })
	best := o.ids[i%len(o.ids)]
	// Check the ring neighbours of the insertion point.
	for _, j := range []int{i - 1, i, i + 1} {
		c := o.ids[((j%len(o.ids))+len(o.ids))%len(o.ids)]
		if c.CloserToThan(key, best) {
			best = c
		}
	}
	return best, true
}

// Stats reports cumulative routing telemetry.
type Stats struct {
	Routes    int
	MeanHops  float64
	MaxHops   int
	Repairs   int
	NumNodes  int
	LeafSize  int
	DigitBits int
	// MeanStretch is cumulative path distance over direct distance on
	// the simulated network plane (1.0 = perfect; proximity-aware
	// tables push it toward 1).
	MeanStretch float64
}

// Stats returns a snapshot of routing telemetry.
func (o *Overlay) Stats() Stats {
	s := Stats{
		Routes:    o.routes,
		MaxHops:   o.hopsMax,
		Repairs:   o.repairs,
		NumNodes:  len(o.ids),
		LeafSize:  o.l,
		DigitBits: o.b,
	}
	if o.routes > 0 {
		s.MeanHops = float64(o.hopsTotal) / float64(o.routes)
	}
	if o.directDist > 0 {
		s.MeanStretch = o.pathDist / o.directDist
	}
	return s
}
