package trace

import (
	"fmt"
	"math"
	"sort"
)

// Stats summarizes the first-order characteristics of a trace that the
// paper's workload-sensitivity experiments manipulate: object-count,
// one-timer fraction, popularity skew, and sharing.
type Stats struct {
	Requests        int     // total references
	DistinctObjs    int     // distinct objects referenced
	OneTimers       int     // objects referenced exactly once
	OneTimerFrac    float64 // OneTimers / DistinctObjs
	MultiAccessed   int     // objects referenced more than once
	DistinctClients int     // distinct clients appearing
	MaxFreq         int     // references to the most popular object
	ZipfAlpha       float64 // least-squares Zipf exponent estimate
	MeanSharing     float64 // mean distinct clients per multi-accessed object
}

// Analyze computes Stats over a trace in one pass (plus a sort for the
// Zipf fit).
func Analyze(t *Trace) Stats {
	freq := make(map[ObjectID]int, t.NumObjects)
	clients := make(map[ClientID]struct{}, t.NumClients)
	objClients := make(map[ObjectID]map[ClientID]struct{})
	for _, r := range t.Requests {
		freq[r.Object]++
		clients[r.Client] = struct{}{}
		cs := objClients[r.Object]
		if cs == nil {
			cs = make(map[ClientID]struct{}, 2)
			objClients[r.Object] = cs
		}
		cs[r.Client] = struct{}{}
	}
	s := Stats{
		Requests:        len(t.Requests),
		DistinctObjs:    len(freq),
		DistinctClients: len(clients),
	}
	var sharingSum, sharingN float64
	counts := make([]int, 0, len(freq))
	for o, f := range freq {
		counts = append(counts, f)
		if f == 1 {
			s.OneTimers++
		} else {
			s.MultiAccessed++
			sharingSum += float64(len(objClients[o]))
			sharingN++
		}
		if f > s.MaxFreq {
			s.MaxFreq = f
		}
	}
	if s.DistinctObjs > 0 {
		s.OneTimerFrac = float64(s.OneTimers) / float64(s.DistinctObjs)
	}
	if sharingN > 0 {
		s.MeanSharing = sharingSum / sharingN
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	s.ZipfAlpha = fitZipf(counts)
	return s
}

// fitZipf estimates the Zipf exponent alpha by least squares on
// log(freq) vs log(rank) over the head of the popularity distribution
// (the head is where Zipf behaviour lives; the one-timer tail is flat
// by construction and would bias the fit).
func fitZipf(desc []int) float64 {
	n := len(desc)
	if n < 10 {
		return 0
	}
	// Fit on the top 20% of ranks, at least 10 and at most 10k points.
	m := n / 5
	if m < 10 {
		m = 10
	}
	if m > n {
		m = n
	}
	if m > 10000 {
		m = 10000
	}
	var sx, sy, sxx, sxy float64
	for i := 0; i < m; i++ {
		x := math.Log(float64(i + 1))
		y := math.Log(float64(desc[i]))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	fm := float64(m)
	den := fm*sxx - sx*sx
	if den == 0 {
		return 0
	}
	slope := (fm*sxy - sx*sy) / den
	return -slope
}

// InfiniteCacheUnits implements the paper's sizing rule (§5.1): the
// infinite cache size of a client cluster is what it takes to hold
// every distinct object accessed more than once by the clients of that
// cluster, in cache units (an object counts at the size of its last
// request; for the paper's unit-size traces, the number of such
// objects).  clusterOf[c] is client c's cluster, one entry per client
// of the trace; a client mapped outside [0, clusters) counts nowhere.
// The function returns the size per cluster index (length = number of
// clusters).
// Like every replay it needs a trace that passes Validate (Object <
// NumObjects).  The trace bounds the object universe, so the reference
// counts are a dense clusters x NumObjects table that saturates at
// "more than once", filled in one pass.
func InfiniteCacheUnits(t *Trace, clusters int, clusterOf []int) []uint64 {
	n := t.NumObjects
	refs := make([]uint8, clusters*n)
	size := make([]uint32, n)
	for _, r := range t.Requests {
		c := clusterOf[r.Client]
		if c < 0 || c >= clusters {
			continue
		}
		if k := &refs[c*n+int(r.Object)]; *k < 2 {
			*k++
		}
		size[r.Object] = r.Size
	}
	out := make([]uint64, clusters)
	for c := range out {
		for obj, k := range refs[c*n : (c+1)*n] {
			if k >= 2 {
				out[c] += uint64(size[obj])
			}
		}
	}
	return out
}

// String renders the stats as a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("reqs=%d objs=%d one-timers=%.1f%% clients=%d alpha=%.2f maxfreq=%d sharing=%.2f",
		s.Requests, s.DistinctObjs, 100*s.OneTimerFrac, s.DistinctClients, s.ZipfAlpha, s.MaxFreq, s.MeanSharing)
}
