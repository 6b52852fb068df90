// Package webcache is a from-scratch reproduction of "Exploiting
// Client Caches: An Approach to Building Large Web Caches" (Zhu & Hu,
// ICPP 2003): a trace-driven simulator for cooperative proxy caching
// that federates client browser caches into a large peer-to-peer cache
// over a Pastry overlay.
//
// The package is a facade over the implementation packages:
//
//	internal/pastry     the Pastry structured overlay
//	internal/p2p        the P2P client cache (diversion, push, piggyback)
//	internal/directory  Exact and Bloom lookup directories
//	internal/cache      LRU / LFU / greedy-dual / GDSF /
//	                    cost-benefit placement
//	internal/prowgen    the ProWGen synthetic workload generator + presets
//	internal/trace      trace model, codecs, statistics, Squid ingestion
//	internal/netmodel   the Ts/Tc/Tl/Tp2p latency model
//	internal/sim        the seven caching schemes + Squirrel baseline
//	internal/core       experiment sweeps for every paper figure
//	internal/stats      replication statistics (means, CIs)
//
// # Quick start
//
//	tr, _ := webcache.GenerateWorkload(webcache.WorkloadConfig{
//		NumRequests: 200_000, NumObjects: 5_000, Seed: 1,
//	})
//	nc, _ := webcache.Run(tr, webcache.Config{Scheme: webcache.NC, ProxyCacheFrac: 0.2})
//	hg, _ := webcache.Run(tr, webcache.Config{Scheme: webcache.HierGD, ProxyCacheFrac: 0.2})
//	fmt.Printf("Hier-GD latency gain: %.1f%%\n", 100*webcache.Gain(hg.AvgLatency, nc.AvgLatency))
//
// To regenerate a paper figure:
//
//	fig, _ := webcache.RunFigure("2a", webcache.FigureOptions{Scale: 0.2})
//	fmt.Print(webcache.FormatTable(fig))
package webcache

import (
	"io"

	"webcache/internal/core"
	"webcache/internal/invariant"
	"webcache/internal/netmodel"
	"webcache/internal/obs"
	"webcache/internal/prowgen"
	"webcache/internal/sim"
	"webcache/internal/trace"
)

// Core simulation types.
type (
	// Scheme is a caching scheme (NC .. HierGD).
	Scheme = sim.Scheme
	// Config parameterizes one simulation run.
	Config = sim.Config
	// Result is the outcome of one run.
	Result = sim.Result
	// DirectoryKind selects Hier-GD's lookup directory.
	DirectoryKind = sim.DirectoryKind
)

// Workload types.
type (
	// Trace is a replayable request trace.
	Trace = trace.Trace
	// Request is one trace record.
	Request = trace.Request
	// ObjectID identifies a Web object.
	ObjectID = trace.ObjectID
	// ClientID identifies a client machine.
	ClientID = trace.ClientID
	// TraceStats summarizes a trace.
	TraceStats = trace.Stats
	// WorkloadConfig parameterizes the ProWGen generator.
	WorkloadConfig = prowgen.Config
	// UCBConfig parameterizes the UCB-like trace reconstruction.
	UCBConfig = prowgen.UCBConfig
	// SquidOptions controls Squid access-log ingestion.
	SquidOptions = trace.SquidOptions
	// SquidResult reports what a Squid ingestion produced.
	SquidResult = trace.SquidResult
)

// Network and experiment types.
type (
	// NetworkModel holds resolved Ts/Tc/Tl/Tp2p latencies.
	NetworkModel = netmodel.Model
	// NetworkParams selects a model through the paper's ratios.
	NetworkParams = netmodel.Params
	// Source is a serving tier (local proxy, P2P, remote, server).
	Source = netmodel.Source
	// Figure is a regenerated paper figure.
	Figure = core.Figure
	// FigureOptions scales and seeds a figure run.
	FigureOptions = core.Options
)

// The seven caching schemes (paper §2–3) plus the Squirrel
// related-work baseline (§6).
const (
	NC       = sim.NC
	SC       = sim.SC
	FC       = sim.FC
	NCEC     = sim.NCEC
	SCEC     = sim.SCEC
	FCEC     = sim.FCEC
	HierGD   = sim.HierGD
	Squirrel = sim.Squirrel
)

// Lookup directory kinds (paper §4.2).
const (
	DirExact = sim.DirExact
	DirBloom = sim.DirBloom
)

// Serving tiers.
const (
	SrcLocalProxy  = netmodel.SrcLocalProxy
	SrcP2P         = netmodel.SrcP2P
	SrcRemoteProxy = netmodel.SrcRemoteProxy
	SrcServer      = netmodel.SrcServer
)

// Run replays a trace under a scheme configuration.
func Run(tr *Trace, cfg Config) (*Result, error) { return sim.Run(tr, cfg) }

// AllSchemes lists every scheme in presentation order.
func AllSchemes() []Scheme { return sim.AllSchemes() }

// ParseScheme resolves a scheme name ("hier-gd", "SCEC", ...).
func ParseScheme(name string) (Scheme, error) { return sim.ParseScheme(name) }

// GenerateWorkload produces a ProWGen synthetic trace (paper §5.1).
func GenerateWorkload(cfg WorkloadConfig) (*Trace, error) { return prowgen.Generate(cfg) }

// DefaultWorkload returns the paper's default workload configuration
// (one million requests, 10,000 objects, 50% one-timers, alpha 0.7).
func DefaultWorkload() WorkloadConfig { return prowgen.Default() }

// GenerateUCBWorkload reconstructs the UCB Home-IP trace workload.
func GenerateUCBWorkload(cfg UCBConfig) (*Trace, error) { return prowgen.GenerateUCB(cfg) }

// WorkloadPreset describes a published proxy-trace family.
type WorkloadPreset = prowgen.Preset

// WorkloadPresets lists the built-in trace families (paper default,
// UCB Home-IP, DEC, campus, backbone).
func WorkloadPresets() []WorkloadPreset { return prowgen.Presets() }

// GeneratePresetWorkload generates a trace from a named family at the
// given request count.
func GeneratePresetWorkload(name string, numRequests int, seed int64) (*Trace, error) {
	_, cfg, err := prowgen.GeneratePreset(name, numRequests, seed)
	if err != nil {
		return nil, err
	}
	return prowgen.Generate(cfg)
}

// AnalyzeTrace computes first-order trace statistics.
func AnalyzeTrace(tr *Trace) TraceStats { return trace.Analyze(tr) }

// LocalityProfile is a trace's LRU reuse-distance distribution.
type LocalityProfile = trace.LocalityProfile

// AnalyzeLocality computes the reuse-distance profile (Mattson stack
// analysis), which predicts LRU hit ratios at every cache size.
func AnalyzeLocality(tr *Trace) *LocalityProfile { return trace.AnalyzeLocality(tr) }

// PopularityCurve returns per-rank reference counts (rank 0 = most
// popular), truncated to maxRanks (0 = all).
func PopularityCurve(tr *Trace, maxRanks int) []int { return trace.PopularityCurve(tr, maxRanks) }

// ReadTraceText / WriteTraceText exchange traces in the line format.
func ReadTraceText(r io.Reader) (*Trace, error)   { return trace.ReadText(r) }
func WriteTraceText(w io.Writer, tr *Trace) error { return trace.WriteText(w, tr) }

// ReadSquidLog ingests a Squid native-format access.log into a trace,
// interning clients and URLs to dense ids.
func ReadSquidLog(r io.Reader, opts SquidOptions) (*SquidResult, error) {
	return trace.ReadSquid(r, opts)
}

// ReadTraceBinary / WriteTraceBinary exchange traces in the compact
// binary format.
func ReadTraceBinary(r io.Reader) (*Trace, error)   { return trace.ReadBinary(r) }
func WriteTraceBinary(w io.Writer, tr *Trace) error { return trace.WriteBinary(w, tr) }

// ReadTraceFile loads a trace file in either format, sniffing the
// binary magic; a damaged binary trace reports the binary decode error.
func ReadTraceFile(path string) (*Trace, error) { return trace.ReadFile(path) }

// NewNetworkModel resolves latency ratios into a model; DefaultNetwork
// is the paper's default (Ts/Tc=10, Ts/Tl=20, Tp2p/Tl=1.4).
func NewNetworkModel(p NetworkParams) (NetworkModel, error) { return netmodel.New(p) }

// DefaultNetwork returns the paper's default latency model.
func DefaultNetwork() NetworkModel { return netmodel.Default() }

// Gain computes the paper's latency-gain metric 1 - Lx/Lnc.
func Gain(lx, lnc float64) float64 { return netmodel.Gain(lx, lnc) }

// RunFigure regenerates a paper figure ("2a".."5d").
func RunFigure(id string, opts FigureOptions) (*Figure, error) { return core.RunFigure(id, opts) }

// RunFigureReplicated regenerates a figure across several seeds and
// reports mean gains with 95% confidence intervals.
func RunFigureReplicated(id string, opts FigureOptions, replicates int) (*Figure, error) {
	return core.RunFigureReplicated(id, opts, replicates)
}

// WriteFigureJSON writes a figure as JSON.
func WriteFigureJSON(w io.Writer, f *Figure) error { return core.WriteJSON(w, f) }

// FigureIDs lists the reproducible figures.
func FigureIDs() []string { return core.FigureIDs() }

// FormatTable renders a figure as an aligned text table.
func FormatTable(f *Figure) string { return core.FormatTable(f) }

// SweepSchemes runs a custom latency-gain sweep of the given schemes
// over the given cache fractions against any trace; the NC baseline is
// computed automatically.
func SweepSchemes(tr *Trace, base Config, schemes []Scheme, fracs []float64, workers int) (*Figure, error) {
	return core.SweepSchemes(tr, base, schemes, fracs, workers)
}

// MetricsRegistry is a run-scoped set of named counters, gauges, and
// timers (METRICS.md has the glossary); attach one via Config.Obs or
// FigureOptions.Obs.  A nil registry disables instrumentation at zero
// cost.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry creates an enabled metric registry scoped to the
// named run.
func NewMetricsRegistry(name string) *MetricsRegistry { return obs.NewRegistry(name) }

// Span-tracing types (METRICS.md "Span tracing"): per-request traces
// with one child span per hop of the decision path, tagged with the
// netmodel component the hop is charged under.
type (
	// SpanTracer samples and collects request traces; attach one via
	// Config.Tracer.  A nil tracer disables tracing at zero cost.
	SpanTracer = obs.Tracer
	// SpanTracerOptions configures NewSpanTracer (origin, head-sampling
	// rate, retention limit, virtual vs wall clock).
	SpanTracerOptions = obs.TracerOptions
	// LatencyDecomposition is span traces folded into a per-tier
	// latency-decomposition table.
	LatencyDecomposition = obs.Decomposition
	// DecompositionReport cross-checks a decomposition against the
	// analytic netmodel latency per tier.
	DecompositionReport = sim.DecompReport
)

// NewSpanTracer creates an enabled request tracer.
func NewSpanTracer(opts SpanTracerOptions) *SpanTracer { return obs.NewTracer(opts) }

// CheckDecomposition compares each tier's span-derived mean served
// latency against the analytic model's prediction for that tier.
func CheckDecomposition(m NetworkModel, d *LatencyDecomposition, tol float64) *DecompositionReport {
	return sim.CheckDecomposition(m, d, tol)
}

// Checker collects cross-layer invariant checks and violations (see
// DESIGN.md for the oracle catalog); attach one via Config.Check or
// FigureOptions.Check.  A nil Checker disables checking at zero cost.
type Checker = invariant.Checker

// NewChecker creates an enabled invariant checker.  reg may be nil;
// when set, check.* counters are published into it.
func NewChecker(reg *MetricsRegistry) *Checker { return invariant.New(reg) }
