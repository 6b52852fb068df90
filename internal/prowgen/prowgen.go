// Package prowgen reimplements the ProWGen Web proxy workload
// generator (Busari & Williamson, INFOCOM 2001) that the paper uses to
// produce its synthetic traces (§5.1).
//
// ProWGen models five workload characteristics; the paper exercises the
// first four (objects are unit-size in its experiments):
//
//  1. one-time referencing — a configurable fraction of objects is
//     referenced exactly once;
//  2. object popularity — multi-accessed objects follow a Zipf-like
//     distribution with exponent alpha;
//  3. number of distinct objects;
//  4. temporal locality — a finite LRU stack model: re-references are
//     drawn preferentially from near the top of a bounded LRU stack, so
//     a larger stack means more references exhibit temporal locality;
//  5. file sizes — lognormal body with a heavy Pareto tail (optional
//     here; the paper fixes Size=1).
//
// All randomness is drawn from the caller's seed, making traces fully
// reproducible.
package prowgen

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"webcache/internal/trace"
)

// Config selects a synthetic workload.  Zero fields take the paper's
// defaults (§5.1): one million requests over 10,000 distinct objects,
// 50% one-timers, alpha 0.7.
type Config struct {
	// NumRequests is the total number of references to generate.
	NumRequests int
	// NumObjects is the number of distinct objects referenced.
	NumObjects int
	// NumClients is the client population the references are spread
	// over (uniformly, so client sub-populations are statistically
	// identical as the paper assumes).
	NumClients int
	// OneTimerFrac is the fraction of distinct objects referenced
	// exactly once (paper default 0.5).
	OneTimerFrac float64
	// Alpha is the Zipf popularity exponent (paper default 0.7).
	Alpha float64
	// StackFrac is the LRU stack size as a fraction of the number of
	// multi-accessed objects (the paper sweeps 5%–60%; default 20%).
	StackFrac float64
	// VariableSizes enables the lognormal/Pareto size model instead of
	// the paper's unit-size assumption.
	VariableSizes bool
	// NumClusters and ClusterAffinity break the paper's "statistically
	// identical client populations" assumption: clients are divided
	// into NumClusters equal groups, each object gets a home cluster,
	// and each of an object's references comes from its home cluster
	// with probability ClusterAffinity (uniform otherwise).  Affinity
	// 0 (or NumClusters <= 1) reproduces the paper's homogeneous
	// setting; affinity 1 makes organizational interests disjoint,
	// which starves inter-proxy sharing — the heterogeneity extension
	// explored by BenchmarkClusterAffinity.
	NumClusters     int
	ClusterAffinity float64
	// Seed drives all generator randomness.
	Seed int64
}

// Paper-default workload parameters.
const (
	DefaultNumRequests  = 1_000_000
	DefaultNumObjects   = 10_000
	DefaultNumClients   = 200
	DefaultOneTimerFrac = 0.5
	DefaultAlpha        = 0.7
	DefaultStackFrac    = 0.2
)

// requestsPerSecond spaces the synthetic timestamps.
const requestsPerSecond = 10

// Default returns the paper's default synthetic workload configuration.
func Default() Config {
	return Config{
		NumRequests:  DefaultNumRequests,
		NumObjects:   DefaultNumObjects,
		NumClients:   DefaultNumClients,
		OneTimerFrac: DefaultOneTimerFrac,
		Alpha:        DefaultAlpha,
		StackFrac:    DefaultStackFrac,
	}
}

func (c *Config) fillDefaults() {
	d := Default()
	if c.NumRequests == 0 {
		c.NumRequests = d.NumRequests
	}
	if c.NumObjects == 0 {
		c.NumObjects = d.NumObjects
	}
	if c.NumClients == 0 {
		c.NumClients = d.NumClients
	}
	if c.OneTimerFrac == 0 {
		c.OneTimerFrac = d.OneTimerFrac
	}
	if c.Alpha == 0 {
		c.Alpha = d.Alpha
	}
	if c.StackFrac == 0 {
		c.StackFrac = d.StackFrac
	}
}

// Validate reports configuration errors after defaulting.
func (c Config) Validate() error {
	switch {
	case c.NumRequests <= 0 || c.NumObjects <= 0 || c.NumClients <= 0:
		return fmt.Errorf("prowgen: counts must be positive: %+v", c)
	case c.OneTimerFrac < 0 || c.OneTimerFrac >= 1:
		return fmt.Errorf("prowgen: one-timer fraction %g outside [0,1)", c.OneTimerFrac)
	case c.Alpha <= 0 || c.Alpha > 2:
		return fmt.Errorf("prowgen: alpha %g outside (0,2]", c.Alpha)
	case c.StackFrac <= 0 || c.StackFrac > 1:
		return fmt.Errorf("prowgen: stack fraction %g outside (0,1]", c.StackFrac)
	}
	oneTimers := int(c.OneTimerFrac * float64(c.NumObjects))
	multi := c.NumObjects - oneTimers
	if multi <= 0 {
		return errors.New("prowgen: no multi-accessed objects")
	}
	if need := oneTimers + 2*multi; c.NumRequests < need {
		return fmt.Errorf("prowgen: %d requests cannot cover %d objects (need >= %d)", c.NumRequests, c.NumObjects, need)
	}
	if c.ClusterAffinity < 0 || c.ClusterAffinity > 1 {
		return fmt.Errorf("prowgen: cluster affinity %g outside [0,1]", c.ClusterAffinity)
	}
	if c.NumClusters < 0 || (c.NumClusters > 1 && c.NumClients < c.NumClusters) {
		return fmt.Errorf("prowgen: %d clusters need at least that many clients (%d)", c.NumClusters, c.NumClients)
	}
	return nil
}

// Generate produces a trace for the configuration.
func Generate(cfg Config) (*trace.Trace, error) {
	cfg.fillDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	oneTimers := int(cfg.OneTimerFrac * float64(cfg.NumObjects))
	multi := cfg.NumObjects - oneTimers
	rerefBudget := cfg.NumRequests - cfg.NumObjects // references beyond each object's introduction

	freqs := zipfFrequencies(multi, rerefBudget+multi, cfg.Alpha)

	// Random permutation decouples object id from popularity rank and
	// one-timer status.
	perm := rng.Perm(cfg.NumObjects)
	// intro order: every object appears exactly once, shuffled.
	intro := make([]trace.ObjectID, cfg.NumObjects)
	remaining := make([]int, cfg.NumObjects) // re-references left per object id
	for rank, id := range perm[:multi] {
		intro[id] = trace.ObjectID(id)
		remaining[id] = freqs[rank] - 1
	}
	for _, id := range perm[multi:] {
		intro[id] = trace.ObjectID(id)
		remaining[id] = 0
	}
	rng.Shuffle(len(intro), func(i, j int) { intro[i], intro[j] = intro[j], intro[i] })

	stackCap := int(cfg.StackFrac * float64(multi))
	if stackCap < 1 {
		stackCap = 1
	}
	g := &generator{
		rng:       rng,
		remaining: remaining,
		stack:     newLRUStack(stackCap, cfg.NumObjects),
	}

	sizes := unitSizes(cfg.NumObjects)
	if cfg.VariableSizes {
		sizes = SampleSizes(rng, cfg.NumObjects)
	}

	// Client selection: homogeneous (the paper's assumption) or
	// cluster-affine.  Cluster c owns the contiguous client range
	// [c*per, (c+1)*per) so it aligns with the simulator's
	// client->proxy mapping when NumClusters == NumProxies.
	pickClient := func(trace.ObjectID) trace.ClientID {
		return trace.ClientID(rng.Intn(cfg.NumClients))
	}
	if cfg.NumClusters > 1 && cfg.ClusterAffinity > 0 {
		per := cfg.NumClients / cfg.NumClusters
		home := make([]int, cfg.NumObjects)
		for i := range home {
			home[i] = rng.Intn(cfg.NumClusters)
		}
		pickClient = func(obj trace.ObjectID) trace.ClientID {
			if rng.Float64() >= cfg.ClusterAffinity {
				return trace.ClientID(rng.Intn(cfg.NumClients))
			}
			c := home[obj]
			lo := c * per
			hi := lo + per
			if c == cfg.NumClusters-1 {
				hi = cfg.NumClients
			}
			return trace.ClientID(lo + rng.Intn(hi-lo))
		}
	}

	t := &trace.Trace{
		Requests:   make([]trace.Request, 0, cfg.NumRequests),
		NumClients: cfg.NumClients,
		NumObjects: cfg.NumObjects,
	}
	introsLeft := len(intro)
	introPos := 0
	rerefsLeft := rerefBudget
	for i := 0; i < cfg.NumRequests; i++ {
		var obj trace.ObjectID
		// Choose introduction vs re-reference in proportion to the
		// *eligible* pending mass (re-references of already-introduced
		// objects).  Weighting by eligible mass rather than the global
		// re-reference budget keeps freshly introduced objects from
		// having their whole quota burned immediately, which would
		// destroy the popularity/locality structure.  Exactness is
		// preserved: each step consumes one introduction or one
		// re-reference, and introsLeft+rerefsLeft equals the steps
		// remaining.
		eligible := g.stackMass + len(g.pool)
		wantIntro := introsLeft > 0 && (eligible == 0 || rng.Intn(introsLeft+eligible) < introsLeft)
		if wantIntro {
			obj = intro[introPos]
			introPos++
			introsLeft--
			if g.remaining[obj] > 0 {
				g.push(obj)
			}
		} else {
			obj = g.reref()
			rerefsLeft--
		}
		tm := uint32(float64(i) / requestsPerSecond)
		t.Requests = append(t.Requests, trace.Request{
			Time:   tm,
			Client: pickClient(obj),
			Object: obj,
			Size:   sizes[obj],
		})
	}
	return t, nil
}

// generator holds the LRU-stack temporal-locality state during a run.
type generator struct {
	rng       *rand.Rand
	remaining []int // re-references left per object
	stack     *lruStack
	stackMass int // sum of remaining[] over objects currently in the stack
	// pool holds individual pending re-references for objects that
	// fell out of the stack: they are replayed without temporal
	// locality, uniformly over the rest of the trace.
	pool []trace.ObjectID
}

// push puts an object on top of the stack, spilling any overflow's
// pending re-references into the random pool.
func (g *generator) push(obj trace.ObjectID) {
	g.stackMass += g.remaining[obj]
	if evicted, ok := g.stack.pushTop(obj); ok {
		g.stackMass -= g.remaining[evicted]
		for j := 0; j < g.remaining[evicted]; j++ {
			g.pool = append(g.pool, evicted)
		}
		g.remaining[evicted] = 0 // accounted for in the pool now
	}
}

// reref emits one re-reference, preferring the LRU stack (temporal
// locality) in proportion to the pending mass it holds.
func (g *generator) reref() trace.ObjectID {
	total := g.stackMass + len(g.pool)
	if total == 0 {
		panic("prowgen: re-reference requested with no pending mass")
	}
	if g.rng.Intn(total) < g.stackMass {
		obj := g.stack.sample(g.rng)
		g.remaining[obj]--
		g.stackMass--
		if g.remaining[obj] == 0 {
			g.stack.remove(obj)
		} else {
			g.stack.moveToTop(obj)
		}
		return obj
	}
	// Uniform draw from the locality-free pool.
	i := g.rng.Intn(len(g.pool))
	obj := g.pool[i]
	g.pool[i] = g.pool[len(g.pool)-1]
	g.pool = g.pool[:len(g.pool)-1]
	return obj
}

// zipfFrequencies returns per-rank reference counts for n multi-accessed
// objects summing exactly to total, each at least 2, skewed as 1/i^alpha.
func zipfFrequencies(n, total int, alpha float64) []int {
	if total < 2*n {
		panic("prowgen: total too small for multi-accessed minimum")
	}
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), alpha)
		sum += w[i]
	}
	freqs := make([]int, n)
	spare := total - 2*n // mass above the per-object minimum of 2
	assigned := 0
	for i := range freqs {
		extra := int(float64(spare) * w[i] / sum)
		freqs[i] = 2 + extra
		assigned += extra
	}
	// Distribute rounding leftover to the most popular ranks.
	for left := spare - assigned; left > 0; left-- {
		freqs[(spare-left)%n]++
	}
	return freqs
}

func unitSizes(n int) []uint32 {
	s := make([]uint32, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

// SampleSizes draws object sizes from ProWGen's hybrid model: a
// lognormal body (median ~4 KB) with a Pareto tail (shape 1.2) for the
// largest ~7% of objects.  Sizes are in kilobytes, minimum 1.
func SampleSizes(rng *rand.Rand, n int) []uint32 {
	const (
		logMean   = 1.5 // ln KB; median ~4.5 KB
		logStddev = 1.1
		tailFrac  = 0.07
		paretoK   = 10.0 // tail scale, KB
		paretoA   = 1.2  // tail shape
	)
	s := make([]uint32, n)
	for i := range s {
		var kb float64
		if rng.Float64() < tailFrac {
			kb = paretoK / math.Pow(1-rng.Float64(), 1/paretoA)
			if kb > 1<<20 { // clamp pathological tail draws at 1 GB
				kb = 1 << 20
			}
		} else {
			kb = math.Exp(rng.NormFloat64()*logStddev + logMean)
		}
		if kb < 1 {
			kb = 1
		}
		s[i] = uint32(kb)
	}
	return s
}
