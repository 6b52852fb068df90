package pastry

// RoutingTable is the prefix-routing table of one Pastry node:
// ceil(128/b) rows of 2^b columns.  The entry at (row r, column c)
// names a node whose id shares the first r digits with the owner and
// whose (r+1)-th digit is c.  The owner's own column in each row is
// conceptually the owner itself and stays empty.
type RoutingTable struct {
	owner ID
	b     int
	// ids and set hold the rows back to back: entry (r, c) is at
	// r<<b | c.  A join builds one table per node and a route indexes
	// one per hop, so a table is three heap objects and an entry one
	// load away.
	ids []ID
	set []bool
	// used[r] counts row r's populated entries: most rows of a table
	// are empty (a ring of N nodes fills about log_2^b N of them), and
	// a scan skips those.
	used []int
	// prefer, when non-nil, decides whether a candidate should
	// displace an incumbent entry (proximity-aware Pastry).
	prefer func(candidate, incumbent ID) bool
}

// SetPreference installs a proximity preference for occupied slots.
func (rt *RoutingTable) SetPreference(prefer func(candidate, incumbent ID) bool) {
	rt.prefer = prefer
}

// NewRoutingTable creates an empty table for owner with digit width b.
func NewRoutingTable(owner ID, b int) *RoutingTable {
	numRows := IDBits / b
	return &RoutingTable{
		owner: owner,
		b:     b,
		ids:   make([]ID, numRows<<b),
		set:   make([]bool, numRows<<b),
		used:  make([]int, numRows),
	}
}

// slot computes the row and the index into ids/set where x belongs in
// the owner's table, or ok=false if x is the owner itself.
func (rt *RoutingTable) slot(x ID) (row, i int, ok bool) {
	row = rt.owner.CommonPrefixLen(x, rt.b)
	if row >= len(rt.used) {
		return 0, 0, false // x == owner
	}
	return row, row<<rt.b | x.Digit(row, rt.b), true
}

// Insert offers x for the table.  An empty slot takes it; an occupied
// slot keeps its incumbent unless a proximity preference (see
// SetPreference) says the candidate is closer, which is how real
// Pastry builds proximity-aware tables.  Reports whether x was stored.
func (rt *RoutingTable) Insert(x ID) bool {
	row, i, ok := rt.slot(x)
	if !ok {
		return false
	}
	if rt.set[i] {
		if rt.ids[i] == x || rt.prefer == nil || !rt.prefer(x, rt.ids[i]) {
			return false
		}
	} else {
		rt.set[i] = true
		rt.used[row]++
	}
	rt.ids[i] = x
	return true
}

// Lookup returns the entry for routing key from the owner: the node in
// row CommonPrefixLen(owner, key) at key's next digit.
func (rt *RoutingTable) Lookup(key ID) (ID, bool) {
	_, i, ok := rt.slot(key)
	if !ok || !rt.set[i] {
		return ID{}, false // key == owner id, or an empty slot
	}
	return rt.ids[i], true
}

// Remove deletes x from the table if present (e.g., a failed node).
func (rt *RoutingTable) Remove(x ID) bool {
	row, i, ok := rt.slot(x)
	if !ok || !rt.set[i] || rt.ids[i] != x {
		return false
	}
	rt.set[i] = false
	rt.ids[i] = ID{}
	rt.used[row]--
	return true
}

// Row returns the populated entries of row r (for join-time state
// transfer: the i-th node on the join route donates its row i).
func (rt *RoutingTable) Row(r int) []ID { return rt.appendRow(nil, r) }

// appendRow appends row r's populated entries to dst, in column order;
// a row outside the table appends nothing.  Join asks for row i of the
// i-th node on a route, and a route may have more hops than the table
// has rows.
func (rt *RoutingTable) appendRow(dst []ID, r int) []ID {
	if r < 0 || r >= len(rt.used) {
		return dst
	}
	for i := r << rt.b; i < (r+1)<<rt.b; i++ {
		if rt.set[i] {
			dst = append(dst, rt.ids[i])
		}
	}
	return dst
}

// Entries returns every populated entry, in (row, column) order.
func (rt *RoutingTable) Entries() []ID { return rt.appendEntries(nil) }

// appendEntries appends Entries() to dst.
func (rt *RoutingTable) appendEntries(dst []ID) []ID {
	for r, n := range rt.used {
		if n != 0 {
			dst = rt.appendRow(dst, r)
		}
	}
	return dst
}

// offerRows offers c every populated entry of the rows from r on.
func (rt *RoutingTable) offerRows(r int, c *closest) {
	for ; r < len(rt.used); r++ {
		if rt.used[r] == 0 {
			continue
		}
		for i := r << rt.b; i < (r+1)<<rt.b; i++ {
			if rt.set[i] {
				c.offer(rt.ids[i])
			}
		}
	}
}

// Size returns the number of populated entries.
func (rt *RoutingTable) Size() int {
	n := 0
	for _, used := range rt.used {
		n += used
	}
	return n
}
