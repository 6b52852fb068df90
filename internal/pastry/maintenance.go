package pastry

import (
	"fmt"
	"sort"
)

// Background maintenance.  Real Pastry nodes periodically exchange
// leaf sets with their neighbours and probe routing-table entries;
// that is what keeps the ring consistent between the lazy repairs that
// routing performs.  Stabilize runs one such round for every live
// node, and the diagnostics below verify the resulting invariants —
// the properties the DHT guarantee (every key has exactly one owner
// and routing finds it) rests on.

// Stabilize runs one maintenance round: every node purges dead state,
// pulls its neighbours' leaf sets, and re-learns its ring neighbours.
// It returns the number of state repairs performed.  Call it after
// bursts of churn when request traffic (whose lazy repair normally
// does this work) is idle.
func (o *Overlay) Stabilize() int {
	repairs := 0
	for _, id := range o.ids {
		n := o.nodes.Get(id)
		// Purge dead entries from both structures.
		for _, m := range n.leafs.Members() {
			if o.nodes.Get(m) == nil {
				n.forget(m)
				repairs++
			}
		}
		for _, e := range n.table.Entries() {
			if o.nodes.Get(e) == nil {
				n.table.Remove(e)
				repairs++
			}
		}
		// Exchange leaf sets with current members.
		before := n.leafs.Len()
		o.repairLeafSet(n)
		if n.leafs.Len() > before {
			repairs += n.leafs.Len() - before
		}
	}
	// Second pass: teach every node its true ring neighbours (the
	// converged fixed point of repeated neighbour exchange).
	half := o.l / 2
	for i, id := range o.ids {
		n := o.nodes.Get(id)
		for d := 1; d <= half; d++ {
			cw := o.ids[(i+d)%len(o.ids)]
			ccw := o.ids[((i-d)%len(o.ids)+len(o.ids))%len(o.ids)]
			if cw != id && !n.leafs.Contains(cw) {
				if n.leafs.Insert(cw) {
					repairs++
				}
			}
			if ccw != id && !n.leafs.Contains(ccw) {
				if n.leafs.Insert(ccw) {
					repairs++
				}
			}
		}
	}
	return repairs
}

// Violation describes one broken overlay invariant.
type Violation struct {
	Node   ID
	Detail string
}

// CheckConsistency verifies the overlay's structural invariants:
//
//  1. every leaf-set entry and routing-table entry points to a live
//     node;
//  2. each node's leaf set holds exactly its l/2 closest live ring
//     neighbours per side (when the overlay is large enough);
//  3. routing-table entries sit in the correct (row, column) for their
//     prefix.
//
// It returns all violations found (empty = consistent).
func (o *Overlay) CheckConsistency() []Violation {
	var out []Violation
	half := o.l / 2
	for i, id := range o.ids {
		n := o.nodes.Get(id)
		for _, m := range n.leafs.Members() {
			if o.nodes.Get(m) == nil {
				out = append(out, Violation{id, fmt.Sprintf("leaf %v is dead", m)})
			}
		}
		for _, e := range n.table.Entries() {
			if o.nodes.Get(e) == nil {
				out = append(out, Violation{id, fmt.Sprintf("table entry %v is dead", e)})
				continue
			}
			row := id.CommonPrefixLen(e, o.b)
			if got, ok := n.table.Lookup(e); !ok || got != e {
				out = append(out, Violation{id, fmt.Sprintf("table entry %v not findable in row %d", e, row)})
			}
		}
		// Ring-neighbour completeness.
		for d := 1; d <= half && d < len(o.ids); d++ {
			cw := o.ids[(i+d)%len(o.ids)]
			ccw := o.ids[((i-d)%len(o.ids)+len(o.ids))%len(o.ids)]
			if cw != id && !n.leafs.Contains(cw) {
				out = append(out, Violation{id, fmt.Sprintf("missing clockwise neighbour #%d %v", d, cw)})
			}
			if ccw != id && !n.leafs.Contains(ccw) {
				out = append(out, Violation{id, fmt.Sprintf("missing counter-clockwise neighbour #%d %v", d, ccw)})
			}
		}
	}
	return out
}

// Diagnostics summarizes per-node state health for operators.
type Diagnostics struct {
	Nodes            int
	MeanTableFill    float64 // populated routing-table entries per node
	MinTableFill     int
	MaxTableFill     int
	MeanLeafFill     float64
	CompleteLeafSets int // nodes whose leaf set holds all ring neighbours
	Violations       int
}

// Diagnose computes overlay health diagnostics.
func (o *Overlay) Diagnose() Diagnostics {
	d := Diagnostics{Nodes: len(o.ids)}
	if d.Nodes == 0 {
		return d
	}
	half := o.l / 2
	fills := make([]int, 0, d.Nodes)
	leafSum := 0
	for i, id := range o.ids {
		n := o.nodes.Get(id)
		fills = append(fills, n.table.Size())
		leafSum += n.leafs.Len()
		complete := true
		for dd := 1; dd <= half && dd < len(o.ids); dd++ {
			cw := o.ids[(i+dd)%len(o.ids)]
			ccw := o.ids[((i-dd)%len(o.ids)+len(o.ids))%len(o.ids)]
			if (cw != id && !n.leafs.Contains(cw)) || (ccw != id && !n.leafs.Contains(ccw)) {
				complete = false
				break
			}
		}
		if complete {
			d.CompleteLeafSets++
		}
	}
	sort.Ints(fills)
	d.MinTableFill = fills[0]
	d.MaxTableFill = fills[len(fills)-1]
	sum := 0
	for _, f := range fills {
		sum += f
	}
	d.MeanTableFill = float64(sum) / float64(d.Nodes)
	d.MeanLeafFill = float64(leafSum) / float64(d.Nodes)
	d.Violations = len(o.CheckConsistency())
	return d
}
