package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"webcache/internal/trace"
)

// twoProxyInput builds a symmetric two-proxy problem with the given
// per-proxy frequencies and one proxy tier each.
func twoProxyInput(freq []float64, capacity int, coop bool) PlacementInput {
	f2 := make([]float64, len(freq))
	copy(f2, freq)
	return PlacementInput{
		Freq: [][]float64{freq, f2},
		Tiers: []Tier{
			{Proxy: 0, Capacity: capacity, HitLatency: 0.05},
			{Proxy: 1, Capacity: capacity, HitLatency: 0.05},
		},
		ServerLatency: 1.0,
		RemoteLatency: 0.1,
		Cooperative:   coop,
	}
}

// placed reports whether any proxy holds o.
func placed(pl *Placement, o trace.ObjectID) bool {
	for _, row := range pl.ByProxy {
		if row[o] >= 0 {
			return true
		}
	}
	return false
}

func TestPlacementRespectsCapacity(t *testing.T) {
	in := twoProxyInput([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 3, true)
	pl := new(Placement)
	if err := pl.Compute(in); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(in.Tiers))
	for p := range pl.ByProxy {
		for _, tier := range pl.ByProxy[p] {
			if tier >= 0 {
				counts[tier]++
			}
		}
	}
	for i, c := range counts {
		if c > in.Tiers[i].Capacity {
			t.Errorf("tier %d holds %d > capacity %d", i, c, in.Tiers[i].Capacity)
		}
	}
}

func TestPlacementPrefersPopularObjects(t *testing.T) {
	in := twoProxyInput([]float64{100, 90, 80, 1, 1, 1}, 2, true)
	pl := new(Placement)
	if err := pl.Compute(in); err != nil {
		t.Fatal(err)
	}
	// The three popular objects must be placed somewhere before any
	// unpopular one.
	for o := trace.ObjectID(0); o < 3; o++ {
		if !placed(pl, o) {
			t.Errorf("popular object %d not placed", o)
		}
	}
}

func TestPlacementCooperationAvoidsDuplication(t *testing.T) {
	// With cooperation and tight capacity, the cluster should cover
	// more distinct objects than 2 independent caches would (which
	// would both cache the same top objects).
	freq := []float64{100, 99, 98, 97, 96, 95, 94, 93}
	coop := new(Placement)
	if err := coop.Compute(twoProxyInput(freq, 4, true)); err != nil {
		t.Fatal(err)
	}
	indep := new(Placement)
	if err := indep.Compute(twoProxyInput(freq, 4, false)); err != nil {
		t.Fatal(err)
	}
	distinct := func(pl *Placement) int {
		s := map[trace.ObjectID]bool{}
		for p := range pl.ByProxy {
			for o, tier := range pl.ByProxy[p] {
				if tier >= 0 {
					s[trace.ObjectID(o)] = true
				}
			}
		}
		return len(s)
	}
	dc, di := distinct(coop), distinct(indep)
	if dc <= di {
		t.Errorf("cooperative distinct coverage %d <= independent %d", dc, di)
	}
	if di != 4 {
		t.Errorf("independent proxies should both cache the top 4, got %d distinct", di)
	}
	if dc != 8 {
		t.Errorf("cooperative cluster should cover all 8, got %d", dc)
	}
}

func TestPlacementDuplicatesWhenWorthIt(t *testing.T) {
	// A single extremely hot object and loose capacity: both proxies
	// should hold their own copy (Tc > Tl makes a local copy worth a
	// slot once coverage no longer suffers).
	freq := []float64{1000, 1, 1}
	pl := new(Placement)
	if err := pl.Compute(twoProxyInput(freq, 3, true)); err != nil {
		t.Fatal(err)
	}
	if pl.ByProxy[0][0] < 0 {
		t.Error("proxy 0 lacks copy of hot object")
	}
	if pl.ByProxy[1][0] < 0 {
		t.Error("proxy 1 lacks copy of hot object")
	}
}

func TestPlacementTwoTiersPutsHotObjectsInFastTier(t *testing.T) {
	in := PlacementInput{
		Freq: [][]float64{{100, 50, 10, 5}},
		Tiers: []Tier{
			{Proxy: 0, Capacity: 2, HitLatency: 0.05}, // proxy tier (Tl)
			{Proxy: 0, Capacity: 2, HitLatency: 0.07}, // p2p tier (Tp2p)
		},
		ServerLatency: 1.0,
		RemoteLatency: 0.1,
		Cooperative:   false,
	}
	pl := new(Placement)
	if err := pl.Compute(in); err != nil {
		t.Fatal(err)
	}
	for o := trace.ObjectID(0); o < 2; o++ {
		if tier := pl.ByProxy[0][o]; tier != 0 {
			t.Errorf("hot object %d in tier %d, want proxy tier 0", o, tier)
		}
	}
	for o := trace.ObjectID(2); o < 4; o++ {
		if tier := pl.ByProxy[0][o]; tier != 1 {
			t.Errorf("warm object %d in tier %d, want p2p tier 1", o, tier)
		}
	}
}

func TestPlacementZeroBenefitObjectsUnplaced(t *testing.T) {
	in := twoProxyInput([]float64{10, 0, 0, 0}, 3, true)
	pl := new(Placement)
	if err := pl.Compute(in); err != nil {
		t.Fatal(err)
	}
	for o := trace.ObjectID(1); o < 4; o++ {
		if placed(pl, o) {
			t.Errorf("zero-frequency object %d placed", o)
		}
	}
}

func TestPlacementInputValidation(t *testing.T) {
	base := twoProxyInput([]float64{1}, 1, true)
	bad := base
	bad.Freq = nil
	if err := new(Placement).Compute(bad); err == nil {
		t.Error("no proxies accepted")
	}
	bad = base
	bad.Freq = [][]float64{{1}, {1, 2}}
	if err := new(Placement).Compute(bad); err == nil {
		t.Error("ragged freq accepted")
	}
	bad = base
	bad.Tiers = []Tier{{Proxy: 5, Capacity: 1, HitLatency: 0.05}}
	if err := new(Placement).Compute(bad); err == nil {
		t.Error("bad tier proxy accepted")
	}
	bad = base
	bad.ServerLatency = 0
	if err := new(Placement).Compute(bad); err == nil {
		t.Error("zero server latency accepted")
	}
	bad = base
	bad.Tiers = []Tier{{Proxy: 0, Capacity: -1, HitLatency: 0.05}}
	if err := new(Placement).Compute(bad); err == nil {
		t.Error("negative capacity accepted")
	}
}

// evaluate computes the total latency of a placement under the
// perfect-frequency model, for comparing greedy to brute force.
func evaluate(in PlacementInput, pl *Placement) float64 {
	numObjects := len(in.Freq[0])
	total := 0.0
	for p := range in.Freq {
		for o := 0; o < numObjects; o++ {
			lat := in.ServerLatency
			if t := pl.ByProxy[p][o]; t >= 0 {
				lat = in.Tiers[t].HitLatency
			} else if in.Cooperative && placed(pl, trace.ObjectID(o)) && in.RemoteLatency < lat {
				lat = in.RemoteLatency
			}
			total += in.Freq[p][o] * lat
		}
	}
	return total
}

// bruteForce enumerates all placements for tiny instances (2 proxies,
// 1 tier each, <=4 objects, capacity <=2) and returns the optimum.
func bruteForce(in PlacementInput) float64 {
	numObjects := len(in.Freq[0])
	best := -1.0
	capacity0 := in.Tiers[0].Capacity
	capacity1 := in.Tiers[1].Capacity
	// Each proxy picks a subset of objects within capacity.
	for m0 := 0; m0 < 1<<numObjects; m0++ {
		if popcount(m0) > capacity0 {
			continue
		}
		for m1 := 0; m1 < 1<<numObjects; m1++ {
			if popcount(m1) > capacity1 {
				continue
			}
			pl := &Placement{ByProxy: [][]int16{make([]int16, numObjects), make([]int16, numObjects)}}
			for o := 0; o < numObjects; o++ {
				pl.ByProxy[0][o], pl.ByProxy[1][o] = -1, -1
				if m0&(1<<o) != 0 {
					pl.ByProxy[0][o] = 0
				}
				if m1&(1<<o) != 0 {
					pl.ByProxy[1][o] = 1
				}
			}
			v := evaluate(in, pl)
			if best < 0 || v < best {
				best = v
			}
		}
	}
	return best
}

func popcount(x int) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// Property: greedy placement achieves at least the classic (1-1/e)
// submodular-greedy guarantee of the optimal latency *benefit*
// (baseline minus achieved latency) on tiny brute-forceable instances.
// In practice it is nearly optimal; the bound here is the proven floor.
func TestPropPlacementNearOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numObjects := 3 + rng.Intn(2)
		freq0 := make([]float64, numObjects)
		freq1 := make([]float64, numObjects)
		for o := range freq0 {
			freq0[o] = float64(rng.Intn(50))
			freq1[o] = float64(rng.Intn(50))
		}
		in := PlacementInput{
			Freq: [][]float64{freq0, freq1},
			Tiers: []Tier{
				{Proxy: 0, Capacity: 1 + rng.Intn(2), HitLatency: 0.05},
				{Proxy: 1, Capacity: 1 + rng.Intn(2), HitLatency: 0.05},
			},
			ServerLatency: 1.0,
			RemoteLatency: 0.1,
			Cooperative:   true,
		}
		pl := new(Placement)
		if err := pl.Compute(in); err != nil {
			return false
		}
		baseline := 0.0
		for p := range in.Freq {
			for _, fr := range in.Freq[p] {
				baseline += fr * in.ServerLatency
			}
		}
		greedyBenefit := baseline - evaluate(in, pl)
		optBenefit := baseline - bruteForce(in)
		if optBenefit <= 0 {
			return greedyBenefit >= -1e-9
		}
		return greedyBenefit >= 0.63*optBenefit-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// refCandidateHeap and refPlacement are the placement greedy as it
// was before the sorted candidate list: every candidate in one lazy
// max-heap and a map per proxy for the result, kept as the oracle for
// TestPlacementMatchesHeapReference.  Test-only.
type refCandidateHeap []candidate

func (h refCandidateHeap) less(i, j int) bool {
	if h[i].benefit != h[j].benefit {
		return h[i].benefit > h[j].benefit
	}
	if h[i].obj != h[j].obj {
		return h[i].obj < h[j].obj
	}
	return h[i].tier < h[j].tier
}

func (h refCandidateHeap) swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *refCandidateHeap) push(c candidate) {
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

func (h *refCandidateHeap) pop() candidate {
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

// refPlacement assumes in is valid.
func refPlacement(in PlacementInput) []map[trace.ObjectID]int {
	numProxies := len(in.Freq)
	numObjects := len(in.Freq[0])
	byProxy := make([]map[trace.ObjectID]int, numProxies)
	for p := range byProxy {
		byProxy[p] = make(map[trace.ObjectID]int)
	}
	copies := make([]int, numObjects)
	localLat := make([]float64, numProxies*numObjects)
	baseRemote := func(o int) float64 {
		if in.Cooperative && copies[o] > 0 {
			return in.RemoteLatency
		}
		return in.ServerLatency
	}
	for i := range localLat {
		localLat[i] = in.ServerLatency
	}
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
	density := func(o, t int) float64 {
		return marginalBenefit(o, t) / float64(in.objectSize(o))
	}
	remaining := make([]int, len(in.Tiers))
	var h refCandidateHeap
	for t := range in.Tiers {
		remaining[t] = in.Tiers[t].Capacity
		if in.Tiers[t].Capacity == 0 {
			continue
		}
		for o := 0; o < numObjects; o++ {
			if in.objectSize(o) > in.Tiers[t].Capacity {
				continue
			}
			if d := density(o, t); d > 0 {
				h.push(candidate{obj: trace.ObjectID(o), tier: t, benefit: d})
			}
		}
	}
	for len(h) > 0 {
		c := h.pop()
		t := c.tier
		o := int(c.obj)
		size := in.objectSize(o)
		if remaining[t] < size {
			continue
		}
		p := in.Tiers[t].Proxy
		if _, dup := byProxy[p][c.obj]; dup {
			continue
		}
		d := density(o, t)
		if d <= 0 {
			continue
		}
		if len(h) > 0 && h[0].benefit > d {
			h.push(candidate{obj: c.obj, tier: t, benefit: d})
			continue
		}
		byProxy[p][c.obj] = t
		remaining[t] -= size
		copies[o]++
		if lat := in.Tiers[t].HitLatency; lat < localLat[p*numObjects+o] {
			localLat[p*numObjects+o] = lat
		}
	}
	return byProxy
}

// TestPlacementMatchesHeapReference: the sorted-list greedy places
// exactly what the single-heap greedy places, on random problems full
// of ties (small integer frequencies, few distinct latencies), with
// unit, variable and occasionally zero sizes, zero-capacity tiers, and
// cooperation on and off.  One Placement is reused across every
// problem, so nothing of an earlier Compute may leak into a later one.
func TestPlacementMatchesHeapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var pl Placement
	for trial := 0; trial < 20000; trial++ {
		numProxies := 1 + rng.Intn(4)
		numObjects := rng.Intn(40)
		in := PlacementInput{
			Freq:          make([][]float64, numProxies),
			ServerLatency: 1,
			RemoteLatency: []float64{0.1, 0.5, 1, 2}[rng.Intn(4)],
			Cooperative:   rng.Intn(2) == 0,
		}
		for p := range in.Freq {
			in.Freq[p] = make([]float64, numObjects)
			for o := range in.Freq[p] {
				if rng.Intn(3) > 0 {
					in.Freq[p][o] = float64(rng.Intn(6))
				}
			}
		}
		for p := 0; p < numProxies; p++ {
			for n := 1 + rng.Intn(2); n > 0; n-- {
				in.Tiers = append(in.Tiers, Tier{
					Proxy:      p,
					Capacity:   []int{0, 1, 2, 3, 5, 8, 20}[rng.Intn(7)],
					HitLatency: []float64{0.05, 0.07, 0.1}[rng.Intn(3)],
				})
			}
		}
		if rng.Intn(2) == 0 {
			in.Sizes = make([]uint32, numObjects)
			zeros := rng.Intn(5) == 0
			for o := range in.Sizes {
				in.Sizes[o] = uint32(1 + rng.Intn(4))
				if zeros && rng.Intn(8) == 0 {
					in.Sizes[o] = 0
				}
			}
		}
		if err := pl.Compute(in); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := checkPlacement(in, &pl); err != nil {
			t.Fatalf("trial %d (%d proxies, %d objects, %d tiers, sizes %v, coop %v): %v",
				trial, numProxies, numObjects, len(in.Tiers), in.Sizes != nil, in.Cooperative, err)
		}
	}
}

// checkPlacement reports the first way any of pls differs from what the
// single-heap greedy (refPlacement) places for in: a (proxy, object)
// held in another tier, or an object whose copy count says it is held
// when the reference holds it nowhere, or the other way round.
func checkPlacement(in PlacementInput, pls ...*Placement) error {
	want := refPlacement(in)
	for o := range in.Freq[0] {
		id := trace.ObjectID(o)
		anywhere := false
		for p := range want {
			wantTier, held := want[p][id]
			if !held {
				wantTier = -1
			}
			anywhere = anywhere || held
			for i, pl := range pls {
				if got := int(pl.ByProxy[p][o]); got != wantTier {
					return fmt.Errorf("placement %d: proxy %d object %d in tier %d, reference %d", i, p, o, got, wantTier)
				}
			}
		}
		for i, pl := range pls {
			if got := pl.copies[id] > 0; got != anywhere {
				return fmt.Errorf("placement %d: object %d held %v by its copy count, reference %v", i, o, got, anywhere)
			}
		}
	}
	return nil
}

// decodePlacement turns a fuzz script into a placement problem.  The
// first byte picks 1-4 proxies (bits 0-1), cooperation (bit 2), the
// remote latency (bits 3-4: 0.1, 0.5, 1 or 2 against a server latency
// of 1, so a peer copy can be worth nothing) and per-object sizes (bit
// 5).  Each proxy then takes one byte per tier: capacity (bits 0-2),
// hit latency (bits 3-4), and for its first tier whether a second one
// follows (bit 7).  The rest is objects, up to 64: one
// frequency byte per proxy (0-7), then a size byte (0-4) when sizes
// are on.
func decodePlacement(script []byte) PlacementInput {
	next := func() byte {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return b
	}
	head := next()
	numProxies := 1 + int(head&3)
	in := PlacementInput{
		Freq:          make([][]float64, numProxies),
		ServerLatency: 1,
		RemoteLatency: []float64{0.1, 0.5, 1, 2}[head>>3&3],
		Cooperative:   head&4 != 0,
	}
	for p := 0; p < numProxies; p++ {
		for i, n := 0, 1; i < n; i++ {
			b := next()
			if i == 0 && b&0x80 != 0 {
				n = 2
			}
			in.Tiers = append(in.Tiers, Tier{
				Proxy:      p,
				Capacity:   []int{0, 1, 2, 3, 5, 8, 20, 40}[b&7],
				HitLatency: []float64{0.05, 0.07, 0.1, 0.05}[b>>3&3],
			})
		}
	}
	perObject := numProxies
	if head&0x20 != 0 {
		perObject++
		in.Sizes = []uint32{}
	}
	numObjects := min(64, len(script)/perObject)
	for p := range in.Freq {
		in.Freq[p] = make([]float64, numObjects)
	}
	for o := 0; o < numObjects; o++ {
		for p := range in.Freq {
			in.Freq[p][o] = float64(next() & 7)
		}
		if in.Sizes != nil {
			in.Sizes = append(in.Sizes, uint32(next()%5))
		}
	}
	return in
}

// FuzzPlacement holds Compute to the single-heap greedy (refPlacement)
// and to a fresh Placement, on one Placement reused across every
// input.  The seeds are tie-heavy windows (many objects at one
// frequency, two tiers of one proxy at one latency) and a window no
// proxy asks anything of.
func FuzzPlacement(f *testing.F) {
	ties := []byte{0x05, 0x85, 0x05, 0x84, 0x0c}
	for o := 0; o < 40; o++ {
		ties = append(ties, 3, 3)
	}
	f.Add(ties)
	pool := []byte{0x04, 0x83, 0x03}
	for o := 0; o < 30; o++ {
		pool = append(pool, 2)
	}
	f.Add(pool)
	sized := []byte{0x27, 0x04, 0x85, 0x0d, 0x06, 0x83, 0x1b}
	for o := 0; o < 24; o++ {
		sized = append(sized, 5, 5, 5, 5, byte(o))
	}
	f.Add(sized)
	f.Add(append([]byte{0x1e, 0x85, 0x04, 0x86, 0x0b, 0x05}, make([]byte, 60)...))
	var pl Placement
	f.Fuzz(func(t *testing.T, script []byte) {
		in := decodePlacement(script)
		if err := pl.Compute(in); err != nil {
			t.Fatal(err)
		}
		fresh := new(Placement)
		if err := fresh.Compute(in); err != nil {
			t.Fatal(err)
		}
		// Placement 0 is the reused one, 1 the fresh one.
		if err := checkPlacement(in, &pl, fresh); err != nil {
			t.Fatal(err)
		}
	})
}
