package p2p

import (
	"math"
	"sort"
)

// Storage-balance diagnostics for object diversion (§4.3): "The
// purpose of storage management of a P2P client cache is to balance
// the remaining free storage space among the client caches in a leaf
// set."  These metrics quantify how well that works; the diversion
// ablation shows the Gini coefficient dropping when diversion is on.
// LoadBalance measures the other imbalance one copy per object leaves:
// the lookup-serve load on the node that owns a popular object.

// BalanceStats summarizes the distribution of storage utilization
// across live client caches.
type BalanceStats struct {
	Live            int
	MeanUtilization float64 // mean used/capacity
	MinUtilization  float64
	MaxUtilization  float64
	StdDev          float64
	// Gini is the Gini coefficient of per-node used space: 0 = all
	// nodes equally loaded, 1 = one node holds everything.
	Gini float64
	// FullNodes counts caches with no free space.
	FullNodes int
}

// StorageBalance computes the current balance statistics.
func (c *Cluster) StorageBalance() BalanceStats {
	var used []float64
	var utils []float64
	full := 0
	c.nodes.Range(func(n *clientNode) bool {
		u := float64(n.cache.Used())
		capacity := float64(n.cache.Capacity())
		used = append(used, u)
		util := 0.0
		if capacity > 0 {
			util = u / capacity
		}
		utils = append(utils, util)
		if n.cache.Used() >= n.cache.Capacity() {
			full++
		}
		return true
	})
	st := BalanceStats{Live: len(used), FullNodes: full}
	if len(used) == 0 {
		return st
	}
	sort.Float64s(utils)
	st.MinUtilization = utils[0]
	st.MaxUtilization = utils[len(utils)-1]
	sum := 0.0
	for _, u := range utils {
		sum += u
	}
	st.MeanUtilization = sum / float64(len(utils))
	varSum := 0.0
	for _, u := range utils {
		d := u - st.MeanUtilization
		varSum += d * d
	}
	st.StdDev = math.Sqrt(varSum / float64(len(utils)))
	st.Gini = gini(used)
	return st
}

// gini computes the Gini coefficient of a non-negative sample.
func gini(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var cum, total float64
	for _, x := range sorted {
		total += x
	}
	if total == 0 {
		return 0
	}
	// G = (2*sum_i i*x_i) / (n*sum x) - (n+1)/n with 1-based ranks.
	for i, x := range sorted {
		cum += float64(i+1) * x
	}
	return 2*cum/(float64(n)*total) - float64(n+1)/float64(n)
}

// LoadStats summarizes the per-node lookup-serve distribution.
type LoadStats struct {
	TotalServes int
	MaxServes   int
	MeanServes  float64
	// P99Serves is the 99th-percentile per-node serve count.
	P99Serves int
}

// LoadBalance computes the serve-load distribution over live nodes.
func (c *Cluster) LoadBalance() LoadStats {
	var loads []int
	total := 0
	c.nodes.Range(func(n *clientNode) bool {
		loads = append(loads, n.served)
		total += n.served
		return true
	})
	st := LoadStats{TotalServes: total}
	if len(loads) == 0 {
		return st
	}
	sort.Ints(loads)
	st.MaxServes = loads[len(loads)-1]
	st.MeanServes = float64(total) / float64(len(loads))
	st.P99Serves = loads[(len(loads)-1)*99/100]
	return st
}
