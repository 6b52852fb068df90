package cache

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"webcache/internal/trace"
)

// This file implements the cost-benefit replacement used by the FC and
// FC-EC schemes (paper §2, §5.1): "based on the assumption of the
// perfect frequency knowledge to each object, the cost-benefit
// replacement algorithm minimizes the aggregate average latency of all
// the clients in the proxy cluster but at the expense of computational
// complexity."
//
// With perfect frequencies the problem is a coordinated *placement*:
// decide which proxy tiers hold a copy of which objects so that total
// access latency over the whole trace is minimized.  We solve it with
// the standard greedy marginal-benefit algorithm (cf. Korupolu &
// Dahlin; Lee et al.): repeatedly place the (object, tier) copy with
// the highest marginal latency saving until every tier is full or no
// placement helps.  Marginal benefits only decrease as copies appear
// (the benefit function is submodular), so a lazy priority queue yields
// the exact greedy solution without re-scanning.
//
// Tiers generalize proxies so FC-EC falls out for free: each proxy has
// a proxy tier at latency Tl and (for FC-EC) a P2P client-cache tier at
// latency Tp2p.

// Tier is one placement target: a capacity at a proxy with a hit
// latency for that proxy's local clients.
type Tier struct {
	// Proxy is the index of the owning proxy.
	Proxy int
	// Capacity is how many unit-size objects the tier holds.
	Capacity int
	// HitLatency is the latency the proxy's local clients pay for a
	// hit in this tier (Tl for the proxy cache, Tp2p for the P2P tier).
	HitLatency float64
}

// PlacementInput bundles the cost-benefit problem.
type PlacementInput struct {
	// Freq[p][o] is the reference count of object o by clients of
	// proxy p (perfect knowledge).
	Freq [][]float64
	// Tiers lists all placement targets across all proxies.
	Tiers []Tier
	// ServerLatency is the fetch latency from the origin server (Ts).
	ServerLatency float64
	// RemoteLatency is the fetch latency from a cooperating proxy
	// (Tc); used when another proxy holds the only copy.
	RemoteLatency float64
	// Cooperative controls whether proxies serve each other (true for
	// FC/FC-EC).  When false the placement degenerates to independent
	// per-proxy optimisation.
	Cooperative bool
	// Sizes gives per-object sizes in cache units (nil = unit sizes).
	// Tier capacities are in the same units; the greedy then ranks
	// candidates by benefit *density* (benefit per unit), the standard
	// variable-size generalization.
	Sizes []uint32
}

// objectSize resolves an object's size (1 when Sizes is nil).
func (in *PlacementInput) objectSize(o int) int {
	if in.Sizes == nil {
		return 1
	}
	return int(in.Sizes[o])
}

// Placement is the result: for each proxy, the tier holding its copy
// of each object.  A Placement keeps the greedy's buffers, so Compute
// on the same Placement reuses them.
type Placement struct {
	// ByProxy[p][o] is the index (into PlacementInput.Tiers) of the tier
	// holding proxy p's copy of o, or -1 when p holds none.
	ByProxy [][]int16

	// copies[o] counts the proxies holding o.
	copies []int
	// The greedy's scratch: latency each proxy's clients pay for each
	// object, room left per tier, the sorted candidates, the radix
	// sort's second buffer (never the same array as cands) and the heap
	// of re-inserted candidates.
	localLat  []float64
	remaining []int
	cands     []candidate
	radix     []candidate
	stale     candidateHeap
}

// candidate is one potential (object, tier) placement in the lazy queue.
type candidate struct {
	obj     trace.ObjectID
	tier    int
	benefit float64
}

// compareCandidates is the queue's total order: benefit descending,
// then object id, then tier ascending.  Benefits in the queue are
// positive (never NaN) and an (object, tier) pair is in it at most
// once, so no two candidates compare equal.
func compareCandidates(a, b candidate) int {
	switch {
	case a.benefit > b.benefit:
		return -1
	case a.benefit < b.benefit:
		return 1
	case a.obj != b.obj:
		return cmp.Compare(a.obj, b.obj)
	default:
		return cmp.Compare(a.tier, b.tier)
	}
}

// candidateHeap is a min-heap under compareCandidates: its root is the
// candidate the greedy takes first.
type candidateHeap []candidate

func (h candidateHeap) less(i, j int) bool { return compareCandidates(h[i], h[j]) < 0 }

func (h candidateHeap) swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *candidateHeap) push(c candidate) {
	*h = append(*h, c)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *candidateHeap) pop() candidate {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && (*h).less(l, best) {
			best = l
		}
		if r < n && (*h).less(r, best) {
			best = r
		}
		if best == i {
			break
		}
		(*h).swap(i, best)
		i = best
	}
	return top
}

// sortByDensity puts cands in descending benefit order, keeping the
// order of equal benefits, with an LSD radix sort on the complemented
// bits of each benefit, one byte per pass.  buf is scratch as long as
// cands, not sharing its array; the passes alternate between the two,
// and after the eighth the sorted candidates are back in cands.  Every
// benefit must be positive: positive float64s (+Inf too) order as
// their bit patterns.
func sortByDensity(cands, buf []candidate) {
	var counts [8][256]int
	for _, c := range cands {
		k := ^math.Float64bits(c.benefit)
		for b := range counts {
			counts[b][byte(k>>(8*b))]++
		}
	}
	src, dst := cands, buf
	for b := range counts {
		shift := 8 * b
		count := &counts[b]
		next := 0
		for i, n := range count {
			count[i] = next
			next += n
		}
		for _, c := range src {
			i := byte(^math.Float64bits(c.benefit) >> shift)
			dst[count[i]] = c
			count[i]++
		}
		src, dst = dst, src
	}
}

// resize returns s with length n, reusing its array when it is large
// enough; the contents are unspecified.
func resize[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	return s[:n]
}

// Compute runs the greedy cost-benefit placement into pl, replacing
// what an earlier Compute left there and reusing its buffers.
//
// The lazy greedy pops candidates in compareCandidates order, and a
// candidate whose recomputed density fell below the queue's best is
// re-inserted.  A heap of every candidate pops them in that order.
// Here candidates are built only for objects some proxy asks for (any
// other has density 0, or NaN at size 0, and neither is queued),
// object by object and, within one, tier by tier: compareCandidates'
// tie order.  sortByDensity's stable passes then give its full order.
// Re-inserted candidates appear one at a time as the greedy runs, so
// they go to a small heap under compareCandidates, and each step takes
// the earlier of the two heads.  Since the order is total, both pop
// the same sequence: the placement is the one a single heap gives.
func (pl *Placement) Compute(in PlacementInput) error {
	numProxies := len(in.Freq)
	if numProxies == 0 {
		return fmt.Errorf("cache: placement needs at least one proxy")
	}
	numObjects := len(in.Freq[0])
	for p, f := range in.Freq {
		if len(f) != numObjects {
			return fmt.Errorf("cache: freq row %d has %d objects, want %d", p, len(f), numObjects)
		}
	}
	if len(in.Tiers) > math.MaxInt16 {
		return fmt.Errorf("cache: %d tiers, at most %d", len(in.Tiers), math.MaxInt16)
	}
	for i, t := range in.Tiers {
		if t.Proxy < 0 || t.Proxy >= numProxies {
			return fmt.Errorf("cache: tier %d references proxy %d of %d", i, t.Proxy, numProxies)
		}
		if t.Capacity < 0 || t.HitLatency < 0 {
			return fmt.Errorf("cache: tier %d has negative capacity or latency", i)
		}
	}
	if in.Sizes != nil && len(in.Sizes) != numObjects {
		return fmt.Errorf("cache: %d sizes for %d objects", len(in.Sizes), numObjects)
	}
	if in.ServerLatency <= 0 || in.RemoteLatency <= 0 {
		return fmt.Errorf("cache: latencies must be positive")
	}

	pl.ByProxy = resize(pl.ByProxy, numProxies)
	for p := range pl.ByProxy {
		row := resize(pl.ByProxy[p], numObjects)
		for o := range row {
			row[o] = -1
		}
		pl.ByProxy[p] = row
	}

	// copies[o] counts placed copies of o cluster-wide; localLat[p*N+o]
	// is the latency proxy p's clients currently pay for o.
	pl.copies = resize(pl.copies, numObjects)
	copies := pl.copies
	clear(copies)
	pl.localLat = resize(pl.localLat, numProxies*numObjects)
	localLat := pl.localLat
	for i := range localLat {
		localLat[i] = in.ServerLatency
	}
	baseRemote := func(o int) float64 {
		if in.Cooperative && copies[o] > 0 {
			return in.RemoteLatency
		}
		return in.ServerLatency
	}

	// marginalBenefit of placing o in tier t right now.
	marginalBenefit := func(o int, t int) float64 {
		tier := in.Tiers[t]
		p := tier.Proxy
		cur := localLat[p*numObjects+o]
		if base := baseRemote(o); base < cur {
			cur = base
		}
		b := 0.0
		if tier.HitLatency < cur {
			b += in.Freq[p][o] * (cur - tier.HitLatency)
		}
		// First copy in the cluster lets every other proxy's clients
		// fetch at Tc instead of Ts (cooperative sharing).
		if in.Cooperative && copies[o] == 0 && in.RemoteLatency < in.ServerLatency {
			for q := 0; q < numProxies; q++ {
				if q == p {
					continue
				}
				if cur := localLat[q*numObjects+o]; in.RemoteLatency < cur {
					b += in.Freq[q][o] * (cur - in.RemoteLatency)
				}
			}
		}
		return b
	}

	// Candidates rank by benefit *density* (benefit per cache unit) so
	// variable-size placements prefer compact value; for unit sizes
	// density equals benefit.
	density := func(o, t int) float64 {
		return marginalBenefit(o, t) / float64(in.objectSize(o))
	}
	// A tier with less room than the smallest object takes nothing
	// more; once no tier has room the rest of the queue would only be
	// skipped, so the greedy stops.
	minSize := 1
	if in.Sizes != nil && numObjects > 0 {
		minSize = int(slices.Min(in.Sizes))
	}
	open := 0
	pl.remaining = resize(pl.remaining, len(in.Tiers))
	remaining := pl.remaining
	for t := range in.Tiers {
		remaining[t] = in.Tiers[t].Capacity
		if remaining[t] >= minSize {
			open++
		}
	}
	cands := pl.cands[:0]
	for o := 0; o < numObjects; o++ {
		if !slices.ContainsFunc(in.Freq, func(f []float64) bool { return f[o] != 0 }) {
			continue
		}
		size := in.objectSize(o)
		for t, tier := range in.Tiers {
			if tier.Capacity == 0 || size > tier.Capacity {
				continue
			}
			if d := density(o, t); d > 0 {
				cands = append(cands, candidate{obj: trace.ObjectID(o), tier: t, benefit: d})
			}
		}
	}
	pl.radix = resize(pl.radix, len(cands))
	sortByDensity(cands, pl.radix)
	stale := pl.stale[:0]

	// Lazy greedy: densities only shrink, so a popped candidate whose
	// recomputed density still tops the queue is the true maximum.
	for next := 0; open > 0 && (next < len(cands) || len(stale) > 0); {
		var c candidate
		if len(stale) > 0 && (next == len(cands) || compareCandidates(stale[0], cands[next]) < 0) {
			c = stale.pop()
		} else {
			c = cands[next]
			next++
		}
		t := c.tier
		o := int(c.obj)
		size := in.objectSize(o)
		if remaining[t] < size {
			continue
		}
		p := in.Tiers[t].Proxy
		if pl.ByProxy[p][o] >= 0 {
			continue // proxy already holds o in some tier
		}
		d := density(o, t)
		if d <= 0 {
			continue
		}
		if (next < len(cands) && cands[next].benefit > d) || (len(stale) > 0 && stale[0].benefit > d) {
			// Stale: reinsert with the fresh density.
			stale.push(candidate{obj: c.obj, tier: t, benefit: d})
			continue
		}
		// Commit the placement.
		pl.ByProxy[p][o] = int16(t)
		remaining[t] -= size
		if remaining[t] < minSize {
			open--
		}
		copies[o]++
		if lat := in.Tiers[t].HitLatency; lat < localLat[p*numObjects+o] {
			localLat[p*numObjects+o] = lat
		}
	}
	pl.cands, pl.stale = cands, stale
	return nil
}
