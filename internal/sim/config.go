package sim

import (
	"fmt"

	"webcache/internal/invariant"
	"webcache/internal/netmodel"
	"webcache/internal/obs"
	"webcache/internal/trace"
)

// DirectoryKind selects a Hier-GD lookup directory representation
// (paper §4.2).
type DirectoryKind int

const (
	// DirExact is the Exact-Directory hashtable.
	DirExact DirectoryKind = iota
	// DirBloom is the counting-Bloom-filter directory.
	DirBloom
)

// String implements fmt.Stringer.
func (d DirectoryKind) String() string {
	if d == DirBloom {
		return "bloom"
	}
	return "exact"
}

// Paper defaults (§5.1).
const (
	DefaultNumProxies        = 2
	DefaultClientsPerCluster = 100
	DefaultProxyCacheFrac    = 0.5
	DefaultClientCacheFrac   = 0.001
	DefaultBloomFPRate       = 0.01
)

// Faults names the chaos faults the simulator models.
type Faults struct {
	// Churn fails ChurnFraction of every cluster's live clients at the
	// trace's midpoint: the mass-churn storm.
	Churn bool
	// Byzantine corrupts ByzantineFraction of P2P client-cache serves.
	Byzantine bool
	// Poison plants bogus directory entries every poisonEvery
	// requests, drawn from recently requested objects the cluster does
	// not hold, so each re-request pays a wasted Tp2p probe.
	Poison bool
}

// Config parameterizes one simulation run.
type Config struct {
	// Scheme is the caching scheme to simulate.
	Scheme Scheme
	// NumProxies is the proxy cluster size (paper default 2;
	// Figure 5(d) sweeps to 10).
	NumProxies int
	// ClientsPerCluster is the client cluster size per proxy (paper
	// default 100), which fixes the client->proxy mapping.
	ClientsPerCluster int
	// P2PClientCaches is the number of client machines contributing
	// their cooperative cache partition to the P2P client cache
	// (Figure 5(c) sweeps 100..1000).  0 means every client in the
	// cluster contributes (== ClientsPerCluster).
	P2PClientCaches int
	// Net is the latency model (zero value = paper defaults).
	Net netmodel.Model
	// ProxyCacheFrac sizes each proxy cache as a fraction of its
	// cluster's infinite cache size (the x-axis of every figure).
	ProxyCacheFrac float64
	// ClientCacheFrac sizes each client's cooperative cache as a
	// fraction of the infinite cache size (paper: 0.001, so a
	// 100-client cluster yields a P2P cache of 10%).
	ClientCacheFrac float64
	// Directory selects Hier-GD's lookup directory; the Bloom variant
	// is sized for DefaultBloomFPRate.
	Directory DirectoryKind
	// Piggyback destages proxy evictions on HTTP responses (§4.4);
	// the paper's design enables it (default true via fillDefaults —
	// set DisablePiggyback to turn it off for the ablation).
	DisablePiggyback bool
	// DisableDiversion turns off Hier-GD's leaf-set object diversion
	// (§4.3) for the ablation bench.
	DisableDiversion bool
	// FailEvery injects a client-cache crash every N requests
	// (Hier-GD only; 0 disables).  ReplaceFailed re-joins a fresh
	// client after each crash.
	FailEvery     int
	ReplaceFailed bool
	// Faults are the chaos faults the Hier-GD engine models (Churn,
	// Byzantine, Poison: the vocabulary internal/chaos also runs live),
	// each off unless set and ignored by the other schemes.  Hardened
	// turns on the defense of each fault that is set, and no other:
	// digest sampling that detects verifyFraction of corrupt serves
	// under Byzantine, and a directory sweep every dirSweepEvery
	// requests under Poison.  Churn has no simulated defense.  The
	// magnitudes are constants beside the engine (hiergd.go).
	Faults
	Hardened bool
	// DigestInterval switches inter-proxy cooperation from perfect
	// instantaneous knowledge (0, the paper's idealization) to
	// Summary-Cache-style Bloom digests rebuilt and exchanged every N
	// requests.  Stale digest entries cost a wasted Tc probe, charged
	// on top of the final fetch.  Applies to SC, SC-EC and Hier-GD;
	// the digests are Bloom filters at DefaultBloomFPRate.
	DigestInterval int
	// WarmupRequests excludes the first N requests from the latency
	// and hit-ratio accounting (caches still process them), isolating
	// steady-state behaviour from cold-start compulsory misses.  The
	// paper measures whole traces (warmup 0, the default).
	WarmupRequests int
	// ProxyCapacityOverride / ClientCapacityOverride pin the
	// per-cluster cache capacities (in cache units) instead of
	// deriving them from the trace through the Frac fields.  This is
	// how a calibration replay matches a live topology whose
	// capacities were sized from a different (usually longer) trace:
	// internal/loadgen sizes the deployment with CapacityPlan, then
	// replays the actually-issued prefix with the plan pinned here.
	// A single element applies to every cluster; empty (the default)
	// keeps the paper's fractional sizing.
	ProxyCapacityOverride  []uint64
	ClientCapacityOverride []uint64
	// Seed drives overlay construction and failure injection.
	Seed int64
	// Obs, when non-nil, receives run instrumentation (the sim.*
	// namespace: serve/byte counts per tier, evictions, maintenance
	// ticks, directory and P2P telemetry — see METRICS.md).  All
	// metrics are cumulative, so concurrent sweep runs may share one
	// registry.  nil (the default) disables instrumentation at zero
	// cost.
	Obs *obs.Registry `json:"-"`
	// Tracer, when non-nil, records one span trace per sampled request
	// with child spans for each hop of the decision path (local proxy
	// probe, directory lookup, P2P fetch, cooperating-proxy probes,
	// origin fetch), each tagged with the netmodel component it is
	// charged under.  The simulator uses the virtual clock: cumulative
	// charged latency, in Tl units.  nil (the default) disables tracing
	// at zero cost, like Obs and Check.
	Tracer *obs.Tracer `json:"-"`
	// Check, when non-nil, threads the invariant subsystem through
	// every stateful layer of the run: replacement policies and lookup
	// directories are replaced by shadow-checked wrappers, P2P receipt
	// streams feed a conservation ledger, and the Pastry rings are
	// verified against their ground truth at the end of the run.
	// Violations accumulate in the Checker (and in Result.Invariant*);
	// nil (the default) disables checking at zero cost (see DESIGN.md).
	Check *invariant.Checker `json:"-"`
}

func (c *Config) fillDefaults() {
	if c.NumProxies == 0 {
		c.NumProxies = DefaultNumProxies
	}
	if c.ClientsPerCluster == 0 {
		c.ClientsPerCluster = DefaultClientsPerCluster
	}
	if c.P2PClientCaches == 0 {
		c.P2PClientCaches = c.ClientsPerCluster
	}
	if c.Net == (netmodel.Model{}) {
		c.Net = netmodel.Default()
	}
	if c.ProxyCacheFrac == 0 {
		c.ProxyCacheFrac = DefaultProxyCacheFrac
	}
	if c.ClientCacheFrac == 0 {
		c.ClientCacheFrac = DefaultClientCacheFrac
	}
}

// Validate reports configuration errors (after defaulting).
func (c Config) Validate() error {
	if c.Scheme < 0 || c.Scheme >= numSchemes {
		return fmt.Errorf("sim: invalid scheme %d", c.Scheme)
	}
	if c.NumProxies < 1 {
		return fmt.Errorf("sim: need at least one proxy (got %d)", c.NumProxies)
	}
	if c.ClientsPerCluster < 1 {
		return fmt.Errorf("sim: need at least one client per cluster (got %d)", c.ClientsPerCluster)
	}
	if c.P2PClientCaches < 0 {
		return fmt.Errorf("sim: negative P2P client cache count %d", c.P2PClientCaches)
	}
	// Range checks are written !(in range) so NaN, which fails every
	// comparison, is rejected.
	if !(c.ProxyCacheFrac > 0 && c.ProxyCacheFrac <= 1) {
		return fmt.Errorf("sim: proxy cache fraction %g outside (0,1]", c.ProxyCacheFrac)
	}
	if !(c.ClientCacheFrac > 0 && c.ClientCacheFrac <= 1) {
		return fmt.Errorf("sim: client cache fraction %g outside (0,1]", c.ClientCacheFrac)
	}
	if c.Directory != DirExact && c.Directory != DirBloom {
		return fmt.Errorf("sim: invalid directory %d", c.Directory)
	}
	if c.DigestInterval < 0 {
		return fmt.Errorf("sim: negative digest interval %d", c.DigestInterval)
	}
	if c.WarmupRequests < 0 {
		return fmt.Errorf("sim: negative warmup %d", c.WarmupRequests)
	}
	if c.FailEvery < 0 {
		return fmt.Errorf("sim: negative failure period %d", c.FailEvery)
	}
	return c.Net.Validate()
}

// sizing holds what a run derives from the trace before the replay
// starts: the per-cluster capacities, where each client sits and the
// object id universe.
type sizing struct {
	objects   int          // tr.NumObjects: every object id lies below it
	requests  int          // tr.Len()
	clients   []clientSlot // indexed by trace.ClientID, below tr.NumClients
	infinite  []int        // per-cluster infinite cache size, in cache units
	proxyCap  []uint64     // per-proxy cache capacity
	clientCap []uint64     // per-client cache capacity per cluster
	p2pCap    []uint64     // aggregate P2P capacity per cluster
}

// computeSizing applies the paper's sizing rules (§5.1).  With
// variable-size traces the infinite cache size counts cache units
// rather than objects (they coincide for the paper's unit-size
// workloads).
func computeSizing(tr *trace.Trace, cfg Config) sizing {
	clients := make([]clientSlot, tr.NumClients)
	proxyOf := make([]int, tr.NumClients)
	for c := range clients {
		clients[c].proxy, clients[c].member = clientMapping(&cfg, trace.ClientID(c))
		proxyOf[c] = clients[c].proxy
	}
	units := trace.InfiniteCacheUnits(tr, cfg.NumProxies, proxyOf)
	inf := make([]int, len(units))
	for i, u := range units {
		inf[i] = int(u)
	}
	s := sizing{
		objects:   tr.NumObjects,
		requests:  tr.Len(),
		clients:   clients,
		infinite:  inf,
		proxyCap:  make([]uint64, cfg.NumProxies),
		clientCap: make([]uint64, cfg.NumProxies),
		p2pCap:    make([]uint64, cfg.NumProxies),
	}
	for p, n := range inf {
		pc := uint64(cfg.ProxyCacheFrac * float64(n))
		if v, ok := override(cfg.ProxyCapacityOverride, p); ok {
			pc = v
		}
		if pc < 1 {
			pc = 1
		}
		cc := uint64(cfg.ClientCacheFrac * float64(n))
		if v, ok := override(cfg.ClientCapacityOverride, p); ok {
			cc = v
		}
		if cc < 1 {
			cc = 1
		}
		s.proxyCap[p] = pc
		s.clientCap[p] = cc
		s.p2pCap[p] = cc * uint64(cfg.P2PClientCaches)
	}
	return s
}

// override resolves a per-cluster capacity override: one element
// applies everywhere, more select by cluster index.
func override(o []uint64, p int) (uint64, bool) {
	switch {
	case len(o) == 0:
		return 0, false
	case p < len(o):
		return o[p], true
	default:
		return o[len(o)-1], true
	}
}

// CapacityPlan reports the per-cluster proxy and per-client cache
// capacities (in cache units) this configuration resolves to for the
// trace — exactly what Run will simulate.  Exported so a live bench
// (internal/loadgen) can size a real topology identically and the
// calibration replay compares like with like.
func (c Config) CapacityPlan(tr *trace.Trace) (proxyCap, clientCap []uint64) {
	c.fillDefaults()
	sz := computeSizing(tr, c)
	return sz.proxyCap, sz.clientCap
}

// ProxyFor returns the proxy cluster that serves the given trace
// client — the exported form of the replay loop's client mapping, so
// live load generation routes each request to the same front-end the
// simulator would.
func (c Config) ProxyFor(client trace.ClientID) int {
	c.fillDefaults()
	p, _ := clientMapping(&c, client)
	return p
}

// clientSlot is where a trace client sits: its proxy cluster and its
// member index there.
type clientSlot struct{ proxy, member int }

// clientMapping resolves a trace client onto (proxy, member index).
// Replays read it from sizing.clients, resolved once per run.
func clientMapping(cfg *Config, c trace.ClientID) (proxy, member int) {
	total := cfg.NumProxies * cfg.ClientsPerCluster
	idx := int(c) % total
	return idx / cfg.ClientsPerCluster, idx % cfg.ClientsPerCluster
}
