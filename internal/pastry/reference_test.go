package pastry

import (
	"math/rand"
	"sort"
)

// Reference implementations for the differential tests
// (differential_test.go): the leaf set, the prefix length and the
// membership protocols in their plainest form — every distance
// recomputed where it is used, every member list copied, every id of
// every pulled leaf set offered.  The production code must decide
// exactly what these decide; they exist only to be compared against,
// so they trade every cost for being easy to check against the paper.

// refCommonPrefixLen compares digit by digit.
func refCommonPrefixLen(a, other ID, b int) int {
	digits := IDBits / b
	for i := 0; i < digits; i++ {
		if a.Digit(i, b) != other.Digit(i, b) {
			return i
		}
	}
	return digits
}

// refCloser is ID.CloserToThan from both circular distances.
func refCloser(a, key, c ID) bool {
	minArc := func(x ID) ID {
		d1, d2 := x.sub(key), key.sub(x)
		if d1.Less(d2) {
			return d1
		}
		return d2
	}
	da, dc := minArc(a), minArc(c)
	if cmp := da.Cmp(dc); cmp != 0 {
		return cmp < 0
	}
	return a.Less(c)
}

// refLeafSet keeps bare ids per side and recomputes arcs on demand.
type refLeafSet struct {
	owner           ID
	half            int
	smaller, larger []ID
}

func (ls *refLeafSet) ccwDist(x ID) ID { return ls.owner.sub(x) }
func (ls *refLeafSet) cwDist(x ID) ID  { return x.sub(ls.owner) }

func (ls *refLeafSet) Insert(x ID) bool {
	if x == ls.owner {
		return false
	}
	kept := false
	var k bool
	if !containsID(ls.larger, x) {
		ls.larger, k = refInsertByDist(ls.larger, x, ls.half, ls.cwDist)
		kept = kept || k
	}
	if !containsID(ls.smaller, x) {
		ls.smaller, k = refInsertByDist(ls.smaller, x, ls.half, ls.ccwDist)
		kept = kept || k
	}
	return kept
}

func refInsertByDist(side []ID, x ID, half int, dist func(ID) ID) ([]ID, bool) {
	i := sort.Search(len(side), func(i int) bool {
		return dist(x).Less(dist(side[i]))
	})
	if i >= half {
		return side, false
	}
	side = append(side, ID{})
	copy(side[i+1:], side[i:])
	side[i] = x
	if len(side) > half {
		side = side[:half]
	}
	return side, true
}

func (ls *refLeafSet) Remove(x ID) {
	for i, v := range ls.smaller {
		if v == x {
			ls.smaller = append(ls.smaller[:i], ls.smaller[i+1:]...)
			break
		}
	}
	for i, v := range ls.larger {
		if v == x {
			ls.larger = append(ls.larger[:i], ls.larger[i+1:]...)
			break
		}
	}
}

func (ls *refLeafSet) Members() []ID {
	out := make([]ID, 0, len(ls.smaller)+len(ls.larger))
	out = append(out, ls.larger...)
	for _, v := range ls.smaller {
		if !containsID(out, v) {
			out = append(out, v)
		}
	}
	return out
}

func (ls *refLeafSet) Covers(key ID) bool {
	if len(ls.smaller) < ls.half || len(ls.larger) < ls.half {
		return true
	}
	maxCCW := ls.ccwDist(ls.smaller[len(ls.smaller)-1])
	maxCW := ls.cwDist(ls.larger[len(ls.larger)-1])
	dCCW := ls.ccwDist(key)
	dCW := ls.cwDist(key)
	return !maxCW.Less(dCW) || !maxCCW.Less(dCCW)
}

func (ls *refLeafSet) Closest(key ID) ID {
	best := ls.owner
	for _, v := range ls.smaller {
		if refCloser(v, key, best) {
			best = v
		}
	}
	for _, v := range ls.larger {
		if refCloser(v, key, best) {
			best = v
		}
	}
	return best
}

// delivers reports whether (got, ok) is LeafSet.Deliver's answer for
// key: ok is Covers, and a covered key goes to Closest.
func (ls *refLeafSet) delivers(got ID, ok bool, key ID) bool {
	if !ls.Covers(key) {
		return !ok
	}
	return ok && got == ls.Closest(key)
}

// refRoutingTable is the routing table with one slice per row and a
// scan of every row per listing: rows[r][c] names a node sharing r
// digits with the owner whose next digit is c.
type refRoutingTable struct {
	owner ID
	b     int
	rows  [][]ID
	set   [][]bool
	// prefer, when non-nil, decides whether a candidate should
	// displace an incumbent entry (proximity-aware Pastry).
	prefer func(candidate, incumbent ID) bool
}

// SetPreference installs a proximity preference for occupied slots.
func (rt *refRoutingTable) SetPreference(prefer func(candidate, incumbent ID) bool) {
	rt.prefer = prefer
}

func newRefRoutingTable(owner ID, b int) *refRoutingTable {
	numRows := IDBits / b
	cols := 1 << b
	rt := &refRoutingTable{
		owner: owner,
		b:     b,
		rows:  make([][]ID, numRows),
		set:   make([][]bool, numRows),
	}
	for i := range rt.rows {
		rt.rows[i] = make([]ID, cols)
		rt.set[i] = make([]bool, cols)
	}
	return rt
}

// slot computes the (row, col) where x belongs in the owner's table,
// or ok=false if x is the owner itself.
func (rt *refRoutingTable) slot(x ID) (row, col int, ok bool) {
	row = refCommonPrefixLen(rt.owner, x, rt.b)
	if row >= len(rt.rows) {
		return 0, 0, false // x == owner
	}
	return row, x.Digit(row, rt.b), true
}

// Insert offers x for the table.  An empty slot takes it; an occupied
// slot keeps its incumbent unless a proximity preference (see
// SetPreference) says the candidate is closer, which is how real
// Pastry builds proximity-aware tables.  Reports whether x was stored.
func (rt *refRoutingTable) Insert(x ID) bool {
	row, col, ok := rt.slot(x)
	if !ok {
		return false
	}
	if rt.set[row][col] {
		if rt.rows[row][col] == x || rt.prefer == nil || !rt.prefer(x, rt.rows[row][col]) {
			return false
		}
	}
	rt.rows[row][col] = x
	rt.set[row][col] = true
	return true
}

// Lookup returns the entry for routing key from the owner: the node in
// row CommonPrefixLen(owner, key) at key's next digit.
func (rt *refRoutingTable) Lookup(key ID) (ID, bool) {
	row := refCommonPrefixLen(rt.owner, key, rt.b)
	if row >= len(rt.rows) {
		return ID{}, false // key == owner id
	}
	col := key.Digit(row, rt.b)
	if !rt.set[row][col] {
		return ID{}, false
	}
	return rt.rows[row][col], true
}

// Remove deletes x from the table if present (e.g., a failed node).
func (rt *refRoutingTable) Remove(x ID) bool {
	row, col, ok := rt.slot(x)
	if !ok || !rt.set[row][col] || rt.rows[row][col] != x {
		return false
	}
	rt.set[row][col] = false
	rt.rows[row][col] = ID{}
	return true
}

// Row returns the populated entries of row r (for join-time state
// transfer: the i-th node on the join route donates its row i).
func (rt *refRoutingTable) Row(r int) []ID {
	if r < 0 || r >= len(rt.rows) {
		return nil
	}
	var out []ID
	for c, ok := range rt.set[r] {
		if ok {
			out = append(out, rt.rows[r][c])
		}
	}
	return out
}

// Entries returns every populated entry.
func (rt *refRoutingTable) Entries() []ID {
	var out []ID
	for r := range rt.rows {
		for c, ok := range rt.set[r] {
			if ok {
				out = append(out, rt.rows[r][c])
			}
		}
	}
	return out
}

type refNode struct {
	id    ID
	b     int
	table *refRoutingTable
	leafs *refLeafSet
}

func (n *refNode) learn(x ID) {
	if x == n.id {
		return
	}
	n.table.Insert(x)
	n.leafs.Insert(x)
}

func (n *refNode) forget(x ID) {
	n.table.Remove(x)
	n.leafs.Remove(x)
}

func (n *refNode) NextHop(key ID) (next ID, final bool) {
	if key == n.id {
		return ID{}, true
	}
	if n.leafs.Covers(key) {
		dest := n.leafs.Closest(key)
		if dest == n.id {
			return ID{}, true
		}
		return dest, false
	}
	if hop, ok := n.table.Lookup(key); ok {
		return hop, false
	}
	myPrefix := refCommonPrefixLen(n.id, key, n.b)
	best := n.id
	consider := func(t ID) {
		if refCommonPrefixLen(t, key, n.b) >= myPrefix && refCloser(t, key, best) {
			best = t
		}
	}
	for _, t := range n.leafs.Members() {
		consider(t)
	}
	for _, t := range n.table.Entries() {
		consider(t)
	}
	if best == n.id {
		return ID{}, true
	}
	return best, false
}

// refOverlay runs the membership protocols and the router over
// refNodes.  It draws from its rng exactly where Overlay does (two
// coordinates, then a bootstrap index, per join), so one seed drives
// both through the same script.
type refOverlay struct {
	b, l           int
	nodes          map[ID]*refNode
	ids            []ID
	rng            *rand.Rand
	proximityAware bool
	coords         map[ID]Coord
}

func newRefOverlay(cfg Config) *refOverlay {
	return &refOverlay{
		b: cfg.B, l: cfg.LeafSetSize,
		nodes:          map[ID]*refNode{},
		rng:            rand.New(rand.NewSource(cfg.Seed)),
		proximityAware: cfg.ProximityAware,
		coords:         map[ID]Coord{},
	}
}

func (o *refOverlay) insertID(id ID) {
	i := sort.Search(len(o.ids), func(i int) bool { return !o.ids[i].Less(id) })
	o.ids = append(o.ids, ID{})
	copy(o.ids[i+1:], o.ids[i:])
	o.ids[i] = id
}

// crash removes a node without telling anyone (what Fail does before
// the keep-alive timeouts fire).
func (o *refOverlay) crash(id ID) *refNode {
	n := o.nodes[id]
	delete(o.nodes, id)
	delete(o.coords, id)
	i := sort.Search(len(o.ids), func(i int) bool { return !o.ids[i].Less(id) })
	o.ids = append(o.ids[:i], o.ids[i+1:]...)
	return n
}

func (o *refOverlay) Join(id ID) {
	x := &refNode{id: id, b: o.b, table: newRefRoutingTable(id, o.b), leafs: &refLeafSet{owner: id, half: (o.l + 1) / 2}}
	o.coords[id] = Coord{X: o.rng.Float64(), Y: o.rng.Float64()}
	if o.proximityAware {
		x.table.SetPreference(func(candidate, incumbent ID) bool {
			return o.coords[id].DistanceTo(o.coords[candidate]) < o.coords[id].DistanceTo(o.coords[incumbent])
		})
	}
	if len(o.ids) == 0 {
		o.nodes[id] = x
		o.insertID(id)
		return
	}
	boot := o.ids[o.rng.Intn(len(o.ids))]
	_, _, path := o.routeFrom(boot, id)
	for i, hop := range path {
		n := o.nodes[hop]
		if n == nil {
			continue
		}
		for _, e := range n.table.Row(i) {
			x.learn(e)
		}
		x.learn(hop)
	}
	z := o.nodes[path[len(path)-1]]
	for _, e := range z.leafs.Members() {
		x.learn(e)
	}
	x.learn(z.id)

	o.nodes[id] = x
	o.insertID(id)

	known := append(x.table.Entries(), x.leafs.Members()...)
	for _, t := range known {
		if n := o.nodes[t]; n != nil {
			n.learn(id)
			for _, e := range n.leafs.Members() {
				x.learn(e)
			}
		}
	}
}

func (o *refOverlay) Fail(id ID) {
	n := o.crash(id)
	for _, m := range n.leafs.Members() {
		if peer := o.nodes[m]; peer != nil {
			peer.forget(id)
			o.repairLeafSet(peer)
		}
	}
}

func (o *refOverlay) Leave(id ID) {
	n := o.crash(id)
	notify := append(n.table.Entries(), n.leafs.Members()...)
	for _, t := range notify {
		if peer := o.nodes[t]; peer != nil {
			peer.forget(id)
			o.repairLeafSet(peer)
		}
	}
}

func (o *refOverlay) repairLeafSet(n *refNode) {
	for _, m := range n.leafs.Members() {
		peer := o.nodes[m]
		if peer == nil {
			n.forget(m)
			continue
		}
		for _, e := range peer.leafs.Members() {
			if _, live := o.nodes[e]; live {
				n.learn(e)
			}
		}
	}
}

func (o *refOverlay) routeFrom(start ID, key ID) (ID, int, []ID) {
	cur, ok := o.nodes[start]
	if !ok {
		return ID{}, 0, nil
	}
	path := []ID{start}
	hops := 0
	for limit := IDBits/o.b + o.l + 8; limit >= 0; limit-- {
		next, final := cur.NextHop(key)
		if final {
			return cur.id, hops, path
		}
		nextNode, alive := o.nodes[next]
		if !alive {
			cur.forget(next)
			o.repairLeafSet(cur)
			continue
		}
		cur = nextNode
		hops++
		path = append(path, next)
	}
	best := path[0]
	for _, p := range path {
		if refCloser(p, key, best) {
			best = p
		}
	}
	return best, hops, path
}

// Owner scans every live node.
func (o *refOverlay) Owner(key ID) ID {
	best := o.ids[0]
	for _, id := range o.ids[1:] {
		if refCloser(id, key, best) {
			best = id
		}
	}
	return best
}
