package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"webcache/internal/httpcache"
	"webcache/internal/loadgen"
	"webcache/internal/obs"
	"webcache/internal/prowgen"
	"webcache/internal/sim"
	"webcache/internal/trace"
)

// The bench role is four behaviour gates on one runner.  How fast each
// layer runs is the repo benchmark's business (bench/, BENCHMARK.json);
// what stays here gates what the system does: sim-vs-live calibration,
// conservation and the tail cut under faults, the SLO burn-rate cut
// and aggregator parity, and hit parity across fleet sizes.
//
// The first argument names the gate (`hiergdd bench live|chaos|slo|fleet`).
// Each gate owns a flagset holding only the flags it reads, bound
// straight into its config struct; the shared workload block supplies
// the flags and the manifest tail every gate has in common.

// benchGate is one gate: bind registers its own flags, run executes it.
type benchGate interface {
	bind(fs *flag.FlagSet)
	run() error
}

// gateEntry is one row of the gate table: the name on the command
// line, the manifest `tool` name (kept from the per-mode days so old
// BENCH_*.json files stay diffable), and the constructor.
type gateEntry struct {
	name, tool string
	new        func(*workload) benchGate
}

var benchGates = []gateEntry{
	{"live", "hiergdd-bench", func(w *workload) benchGate { return &liveGate{workload: w} }},
	{"chaos", "hiergdd-chaos", func(w *workload) benchGate { return &chaosGate{workload: w} }},
	{"slo", "hiergdd-slo", func(w *workload) benchGate { return &sloGate{workload: w} }},
	{"fleet", "hiergdd-fleet", func(w *workload) benchGate { return &fleetGate{workload: w} }},
}

// flagSet builds the gate with its flags — the shared workload block
// plus its own — registered on a fresh flagset.
func (e gateEntry) flagSet() (*flag.FlagSet, *workload, benchGate) {
	fs := flag.NewFlagSet("bench "+e.name, flag.ContinueOnError)
	w := &workload{}
	w.bind(fs)
	g := e.new(w)
	g.bind(fs)
	return fs, w, g
}

// Knobs that were flags no Makefile line, CI step, test or runbook
// ever set; every gate runs at these values.
const (
	benchSeed        int64 = 1                // workload and arrival-process seed
	benchProxyFrac         = 0.05             // proxy cache size / infinite cache size
	benchClientFrac        = 0.005            // per-client cache size / infinite cache size
	benchMaxInflight       = 512              // open-loop in-flight bound
	benchTimeout           = 10 * time.Second // per-request timeout
)

// runBench is the bench role's entry point.
func runBench(args []string) error {
	w, g, err := parseBench(args)
	if errors.Is(err, flag.ErrHelp) {
		return nil // the flagset already printed the gate's usage
	}
	if err != nil {
		return err
	}
	startPprof(w.pprof)
	return g.run()
}

// parseBench resolves the gate named by args[0] and parses the rest
// against that gate's flagset, without running anything.
func parseBench(args []string) (*workload, benchGate, error) {
	gate := ""
	if len(args) > 0 {
		gate = args[0]
	}
	names := make([]string, len(benchGates))
	for i, entry := range benchGates {
		names[i] = entry.name
		if entry.name != gate {
			continue
		}
		fs, w, g := entry.flagSet()
		if err := fs.Parse(args[1:]); err != nil {
			return nil, nil, err
		}
		if fs.NArg() > 0 {
			return nil, nil, fmt.Errorf("bench %s: unexpected argument %q", gate, fs.Arg(0))
		}
		if w.manifest != "" {
			w.man = obs.NewManifest(entry.tool)
		}
		return w, g, nil
	}
	return nil, nil, fmt.Errorf("unknown bench gate %q; usage: hiergdd bench %s [flags]", gate, strings.Join(names, "|"))
}

// workload is the block every gate shares: the generated ProWGen
// workload's shape, the origin body size, and where the manifest goes.
type workload struct {
	requests, objects, clients int
	objectBytes                int
	manifest, pprof            string

	man *obs.Manifest // started at parse time so wall_seconds spans the run; nil without -manifest
}

func (w *workload) bind(fs *flag.FlagSet) {
	fs.IntVar(&w.requests, "requests", 20000, "generated trace length")
	fs.IntVar(&w.objects, "objects", 2000, "generated distinct objects")
	fs.IntVar(&w.clients, "clients", 200, "generated client population")
	fs.IntVar(&w.objectBytes, "object-bytes", 1024, "origin body size per object (1 trace cache unit)")
	fs.StringVar(&w.manifest, "manifest", "", "write a run-manifest JSON document to this file")
	fs.StringVar(&w.pprof, "pprof", "", "expose net/http/pprof on this address")
}

// generate builds the gate's ProWGen workload.
func (w *workload) generate() (*trace.Trace, error) {
	return prowgen.Generate(prowgen.Config{
		NumRequests: w.requests,
		NumObjects:  w.objects,
		NumClients:  w.clients,
		Seed:        benchSeed,
	})
}

// finish is the manifest tail every gate shares (a no-op without
// -manifest): fingerprint the workload so benchdiff refuses to compare
// manifests of different traces, echo the config, fold the registry
// in, write the file, and self-check that it round-trips through the
// validating reader so downstream tooling can rely on it.
func (w *workload) finish(tr *trace.Trace, reg *obs.Registry, config, notes map[string]any) error {
	if w.man == nil {
		return nil
	}
	w.man.Trace = map[string]any{
		"fingerprint":      trace.Fingerprint(tr),
		"requests":         tr.Len(),
		"distinct_clients": traceClients(tr),
	}
	w.man.Config = config
	w.man.Notes = notes
	w.man.Finish(reg)
	if err := w.man.WriteFile(w.manifest); err != nil {
		return fmt.Errorf("writing manifest: %w", err)
	}
	if _, err := obs.ReadManifestFile(w.manifest); err != nil {
		return fmt.Errorf("manifest self-check: %w", err)
	}
	fmt.Printf("manifest: %s\n", w.manifest)
	return nil
}

// topology is the loopback shape and open-loop rate the live, chaos
// and slo gates share.
type topology struct {
	proxies, caches int
	rate            float64
}

func (t *topology) bind(fs *flag.FlagSet) {
	fs.IntVar(&t.proxies, "proxies", 2, "cooperating proxies")
	fs.IntVar(&t.caches, "caches", 3, "client-cache daemons per proxy")
	fs.Float64Var(&t.rate, "rate", 500, "open-loop arrival rate in req/s (bursty: peak rate)")
}

// simConfig is the simulator configuration a loopback topology is
// sized from (CapacityPlan) and routed by (ProxyFor), so live and
// simulated runs of one workload share capacities and client mapping.
// Its digests are the live proxies' (httpcache.DigestEvery of each
// proxy's requests is that many times the proxies of all of them).
func (t topology) simConfig(clients int) sim.Config {
	return sim.Config{
		Scheme:            sim.HierGD,
		NumProxies:        t.proxies,
		ClientsPerCluster: (clients + t.proxies - 1) / t.proxies,
		P2PClientCaches:   t.caches,
		Directory:         sim.DirExact,
		ProxyCacheFrac:    benchProxyFrac,
		ClientCacheFrac:   benchClientFrac,
		DigestInterval:    httpcache.DigestEvery * t.proxies,
		Seed:              benchSeed,
	}
}

// unitsToBytes scales trace cache units to origin-body bytes.
func unitsToBytes(units []uint64, objectBytes int) []uint64 {
	out := make([]uint64, len(units))
	for i, u := range units {
		out[i] = u * uint64(objectBytes)
	}
	return out
}

// closeTopology drains a loopback topology within the deadline.
func closeTopology(topo *loadgen.Topology, drain time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	topo.Close(ctx)
}

// bindWarmup registers -warmup; resolveWarmup applies its -1 default.
func bindWarmup(fs *flag.FlagSet, warmup *int) {
	fs.IntVar(warmup, "warmup", -1, "requests discarded from accounting (-1 = trace length / 10)")
}

func resolveWarmup(warmup, traceLen int) int {
	if warmup < 0 {
		return traceLen / 10
	}
	return warmup
}

// liveGate is the calibration gate: stand up a loopback
// proxy/client-cache topology sized from the simulator's capacity
// plan, replay a trace over real HTTP (open- or closed-loop), report
// per-tier hit ratios and latency quantiles, and calibrate the run
// against a simulator replay of the same request prefix with
// identical capacities (EXPERIMENTS.md "Live benchmarking &
// calibration").
type liveGate struct {
	*workload
	topology
	tracePath            string
	mode, arrival        string
	onPeriod, offPeriod  time.Duration
	workers              int
	think, duration      time.Duration
	warmup               int
	tolerance            float64
	traceOut, traceJSONL string
	traceSample          int
	drain                time.Duration
}

func (g *liveGate) bind(fs *flag.FlagSet) {
	g.topology.bind(fs)
	bindWarmup(fs, &g.warmup)
	fs.StringVar(&g.tracePath, "trace", "", "trace file to replay (binary or text; empty = generate with ProWGen from -requests/-objects/-clients)")
	fs.StringVar(&g.mode, "mode", "open", `driving discipline: "open" or "closed"`)
	fs.StringVar(&g.arrival, "arrival", "poisson", `open-loop arrival process: "poisson" or "bursty"`)
	fs.DurationVar(&g.onPeriod, "on", 2*time.Second, "bursty mean ON window")
	fs.DurationVar(&g.offPeriod, "off", 6*time.Second, "bursty mean OFF window")
	fs.IntVar(&g.workers, "workers", 8, "closed-loop concurrency")
	fs.DurationVar(&g.think, "think", 0, "closed-loop per-worker think time")
	fs.DurationVar(&g.duration, "duration", 0, "stop issuing after this long (0 = whole trace)")
	fs.Float64Var(&g.tolerance, "tolerance", 0, "fail if |live - sim| aggregate hit ratio exceeds this (0 = report only)")
	// -trace is the input workload; -trace-out and friends are the
	// span-tracing exports.
	fs.StringVar(&g.traceOut, "trace-out", "", "write sampled request traces (driver roots + daemon hops) as Chrome trace-event JSON to this file")
	fs.StringVar(&g.traceJSONL, "trace-jsonl", "", "write sampled request traces as JSONL to this file")
	fs.IntVar(&g.traceSample, "trace-sample", 100, "head-sample 1 in N driven requests")
	fs.DurationVar(&g.drain, "drain", 5*time.Second, "topology shutdown drain deadline")
}

func (g *liveGate) run() error {
	var tr *trace.Trace
	var err error
	if g.tracePath != "" {
		tr, err = trace.ReadFile(g.tracePath)
	} else {
		tr, err = g.generate()
	}
	if err != nil {
		return err
	}
	warmup := resolveWarmup(g.warmup, tr.Len())

	simCfg := g.simConfig(traceClients(tr))
	simCfg.WarmupRequests = warmup
	proxyCap, clientCap := simCfg.CapacityPlan(tr)

	// Instrumentation stays off (nil registry) unless a manifest wants it.
	var reg *obs.Registry
	if g.man != nil {
		reg = obs.NewRegistry("hiergdd-bench")
	}
	// Span tracing: the driver head-samples roots and stamps the trace
	// id on the wire; the daemons share one join-only collector, so
	// every daemon record is a hop of a driver-sampled request and the
	// merged export shows each request's full decision path.
	var driverTracer, daemonTracer *obs.Tracer
	if g.traceOut != "" || g.traceJSONL != "" {
		driverTracer = obs.NewTracer(obs.TracerOptions{
			Origin: "loadgen", SampleEvery: g.traceSample, Clock: obs.ClockWall,
		})
		daemonTracer = obs.NewTracer(obs.TracerOptions{
			Origin: "daemon", SampleEvery: obs.SampleNever, Clock: obs.ClockWall,
		})
	}

	topo, err := loadgen.StartLoopback(loadgen.TopologyConfig{
		Proxies:            g.proxies,
		CachesPerProxy:     g.caches,
		ProxyCapacityBytes: unitsToBytes(proxyCap, g.objectBytes),
		CacheCapacityBytes: unitsToBytes(clientCap, g.objectBytes),
		ObjectBytes:        g.objectBytes,
		Tracer:             daemonTracer,
		Metrics:            reg,
	})
	if err != nil {
		return err
	}
	defer closeTopology(topo, g.drain)
	fmt.Printf("hiergdd bench: %d proxies x %d client caches on loopback, origin %s\n",
		g.proxies, g.caches, topo.OriginURL)
	fmt.Printf("  capacities (units x %dB objects): proxy %v, per-client %v\n",
		g.objectBytes, proxyCap, clientCap)

	sched, err := loadgen.BuildSchedule(tr, topo.ProxyURLs, topo.OriginURL, simCfg.ProxyFor)
	if err != nil {
		return err
	}

	opts := loadgen.Options{
		MaxInflight: benchMaxInflight,
		Workers:     g.workers,
		Think:       g.think,
		Duration:    g.duration,
		Warmup:      warmup,
		Obs:         reg,
		Tracer:      driverTracer,
	}
	switch g.mode {
	case "open":
		opts.Mode = loadgen.OpenLoop
		switch g.arrival {
		case "poisson":
			opts.Arrival, err = loadgen.NewPoisson(g.rate, benchSeed)
		case "bursty":
			opts.Arrival, err = loadgen.NewBursty(g.rate, g.onPeriod, g.offPeriod, benchSeed)
		default:
			err = fmt.Errorf("unknown arrival process %q", g.arrival)
		}
		if err != nil {
			return err
		}
	case "closed":
		opts.Mode = loadgen.ClosedLoop
	default:
		return fmt.Errorf("unknown mode %q", g.mode)
	}

	tgt := loadgen.NewHTTPTarget(benchTimeout)
	res, err := loadgen.Run(context.Background(), sched, tgt, opts)
	tgt.CloseIdleConnections() // pre-dialed pool conns would stall the drain
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(res.Table())

	// Replay exactly what was issued through the simulator with the
	// live topology's capacities pinned.
	simCfg.ProxyCapacityOverride = proxyCap
	simCfg.ClientCapacityOverride = clientCap
	rep, err := loadgen.Calibrate(tr, res, simCfg, g.tolerance)
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(rep.Table())

	if driverTracer != nil {
		// Driver-observed per-tier latency decomposition.  Report-only:
		// live tiers are wall-clock RTTs, not analytic netmodel units, so
		// no tolerance check applies here (the asserted cross-check
		// against netmodel lives in the simulator's trace path).
		if d := driverTracer.Decompose(); len(d.Tiers) > 0 {
			fmt.Println()
			fmt.Println("live latency decomposition (seconds, driver-observed):")
			fmt.Print(d.Table())
		}
		merged := append(driverTracer.Snapshots(), daemonTracer.Snapshots()...)
		if g.traceOut != "" {
			if err := writeTraces(g.traceOut, func(w io.Writer) error {
				return obs.WriteChromeTraces(w, merged)
			}); err != nil {
				return fmt.Errorf("trace export: %w", err)
			}
			fmt.Printf("\ntrace: %d records (%d sampled roots) -> %s\n",
				len(merged), driverTracer.Len(), g.traceOut)
		}
		if g.traceJSONL != "" {
			if err := writeTraces(g.traceJSONL, func(w io.Writer) error {
				return obs.WriteJSONLTraces(w, merged)
			}); err != nil {
				return fmt.Errorf("trace export: %w", err)
			}
			fmt.Printf("trace: %d records -> %s\n", len(merged), g.traceJSONL)
		}
		if reg != nil {
			// Once, at end of run — PublishMetrics accumulates counters.
			driverTracer.PublishMetrics(reg)
			daemonTracer.PublishMetrics(reg)
		}
	}

	if err := g.finish(tr, reg, map[string]any{
		"mode":                  g.mode,
		"arrival":               g.arrival,
		"rate":                  g.rate,
		"proxies":               g.proxies,
		"caches_per_proxy":      g.caches,
		"object_bytes":          g.objectBytes,
		"proxy_capacity_units":  proxyCap,
		"client_capacity_units": clientCap,
		"warmup":                warmup,
		"tolerance":             g.tolerance,
		"seed":                  benchSeed,
	}, map[string]any{
		"live":        res.SummaryNote(),
		"calibration": rep,
	}); err != nil {
		return err
	}

	if g.tolerance > 0 && !rep.WithinTolerance {
		return fmt.Errorf("calibration outside tolerance: |%.3f| > %.3f aggregate hit-ratio delta",
			math.Abs(rep.AggregateDelta), g.tolerance)
	}
	return nil
}

// writeTraces creates path and streams one export into it.
func writeTraces(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceClients is the client population (max id + 1, ids are dense).
func traceClients(tr *trace.Trace) int {
	var max trace.ClientID
	for _, r := range tr.Requests {
		if r.Client > max {
			max = r.Client
		}
	}
	return int(max) + 1
}
