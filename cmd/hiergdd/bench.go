package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"strings"
	"time"

	"webcache/internal/loadgen"
	"webcache/internal/obs"
	"webcache/internal/prowgen"
	"webcache/internal/trace"
)

// The bench role is two behaviour gates on one runner.  How fast each
// layer runs is the repo benchmark's business (bench/, BENCHMARK.json);
// what stays here gates what the system does: sim-vs-live calibration,
// and under faults conservation, the tail and burn-rate cuts, and
// aggregator parity.
//
// The first argument names the gate (`hiergdd bench live|chaos`).
// Each gate owns a flagset holding only the flags it reads, bound
// straight into its config struct; the shared workload block supplies
// the workload flags and the gate's obs.Session.

// benchGate is one gate: bind registers its own flags, run executes it.
type benchGate interface {
	bind(fs *flag.FlagSet)
	run() error
}

// gateEntry is one row of the gate table: the name on the command
// line, the manifest `tool` name (kept from the per-mode days so old
// BENCH_*.json files stay diffable; it also selects the gate's
// observability flags), and the constructor.
type gateEntry struct {
	name, tool string
	new        func(*workload) benchGate
}

var benchGates = []gateEntry{
	{"live", "hiergdd-bench", func(w *workload) benchGate { return &liveGate{workload: w} }},
	{"chaos", "hiergdd-chaos", func(w *workload) benchGate { return &chaosGate{workload: w} }},
}

// flagSet builds the gate with its flags — the shared workload block,
// the session's, and its own — registered on a fresh flagset.
func (e gateEntry) flagSet() (*flag.FlagSet, *workload, benchGate) {
	fs := flag.NewFlagSet("bench "+e.name, flag.ContinueOnError)
	w := &workload{}
	w.bind(fs)
	w.sess = obs.NewSession(fs, e.tool)
	g := e.new(w)
	g.bind(fs)
	return fs, w, g
}

// benchSeed is the workload and arrival-process seed every gate runs at.
const benchSeed int64 = 1

// runBench is the bench role's entry point.
func runBench(args []string) error {
	_, g, err := parseBench(args)
	if errors.Is(err, flag.ErrHelp) {
		return nil // the flagset already printed the gate's usage
	}
	if err != nil {
		return err
	}
	return g.run()
}

// parseBench resolves the gate named by args[0], parses the rest
// against that gate's flagset and starts its session (so the
// manifest's wall clock spans the run), without running the gate.
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
		if err := w.sess.Start(); err != nil {
			return nil, nil, err
		}
		return w, g, nil
	}
	return nil, nil, fmt.Errorf("unknown bench gate %q; usage: hiergdd bench %s [flags]", gate, strings.Join(names, "|"))
}

// workload is the block every gate shares: the generated ProWGen
// workload's shape, the origin body size, and the gate's run record.
type workload struct {
	requests, objects, clients int
	objectBytes                int

	sess *obs.Session
}

func (w *workload) bind(fs *flag.FlagSet) {
	fs.IntVar(&w.requests, "requests", 20000, "generated trace length")
	fs.IntVar(&w.objects, "objects", 2000, "generated distinct objects")
	fs.IntVar(&w.clients, "clients", 200, "generated client population")
	fs.IntVar(&w.objectBytes, "object-bytes", 1024, "origin body size per object (1 trace cache unit)")
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

// finish is the tail every gate shares: fingerprint the workload so
// manifests of different traces can be told apart, echo the config
// and notes, and close the session with reg (the gate's registry) as
// the manifest's metrics.
func (w *workload) finish(tr *trace.Trace, reg *obs.Registry, config, notes map[string]any) error {
	w.sess.Reg = reg
	if tr != nil {
		w.sess.SetTrace(tr, map[string]any{"distinct_clients": traceClients(tr)})
	}
	for k, v := range config {
		w.sess.SetConfig(k, v)
	}
	for k, v := range notes {
		w.sess.SetNote(k, v)
	}
	return w.sess.Close()
}

// topology is the loopback shape and open-loop rate both gates share.
type topology struct {
	proxies, caches int
	rate            float64
}

func (t *topology) bind(fs *flag.FlagSet) {
	fs.IntVar(&t.proxies, "proxies", 2, "cooperating proxies")
	fs.IntVar(&t.caches, "caches", 3, "client-cache daemons per proxy")
	fs.Float64Var(&t.rate, "rate", 500, "open-loop arrival rate in req/s (a chaos flash crowd's peak rate)")
}

// liveGate is the calibration gate: stand up a loopback
// proxy/client-cache topology sized from the simulator's capacity
// plan, replay a trace over real HTTP (Poisson open loop or closed
// loop), report per-tier hit ratios and latency quantiles, and
// calibrate the run against a simulator replay of the same request
// prefix with identical capacities (EXPERIMENTS.md "Live benchmarking
// & calibration").
type liveGate struct {
	*workload
	topology
	tracePath string
	mode      string
	workers   int
	duration  time.Duration
	warmup    int
	tolerance float64
}

func (g *liveGate) bind(fs *flag.FlagSet) {
	g.topology.bind(fs)
	fs.IntVar(&g.warmup, "warmup", -1, "requests discarded from accounting (-1 = trace length / 10)")
	// -trace is the input workload; the session's -trace-out is the
	// span-tracing export.
	fs.StringVar(&g.tracePath, "trace", "", "trace file to replay (binary or text; empty = generate with ProWGen from -requests/-objects/-clients)")
	fs.StringVar(&g.mode, "mode", "open", `driving discipline: "open" (Poisson arrivals at -rate) or "closed" (-workers back to back)`)
	fs.IntVar(&g.workers, "workers", 8, "closed-loop concurrency")
	fs.DurationVar(&g.duration, "duration", 0, "stop issuing after this long (0 = whole trace)")
	fs.Float64Var(&g.tolerance, "tolerance", 0, "fail if |live - sim| aggregate hit ratio exceeds this (0 = report only)")
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
	warmup := g.warmup
	if warmup < 0 {
		warmup = tr.Len() / 10
	}

	simCfg := loadgen.LoopbackSimConfig(g.proxies, g.caches, traceClients(tr), benchSeed)
	simCfg.WarmupRequests = warmup
	proxyCap, clientCap := simCfg.CapacityPlan(tr)

	// Instrumentation stays off (nil registry) unless a manifest wants it.
	reg := g.sess.Reg
	// Span tracing: the driver head-samples roots and stamps the trace
	// id on the wire; the daemons share one join-only collector, so
	// every daemon record is a hop of a driver-sampled request and the
	// merged export shows each request's full decision path.
	driverTracer, daemonTracer := g.sess.Tracer, g.sess.JoinTracer("daemon")

	topo, err := loadgen.StartLoopback(loadgen.TopologyConfig{
		Proxies:            g.proxies,
		CachesPerProxy:     g.caches,
		ProxyCapacityBytes: loadgen.UnitsToBytes(proxyCap, g.objectBytes),
		CacheCapacityBytes: loadgen.UnitsToBytes(clientCap, g.objectBytes),
		ObjectBytes:        g.objectBytes,
		Tracer:             daemonTracer,
		Metrics:            reg,
	})
	if err != nil {
		return err
	}
	defer topo.Stop()
	fmt.Printf("hiergdd bench: %d proxies x %d client caches on loopback, origin %s\n",
		g.proxies, g.caches, topo.OriginURL)
	fmt.Printf("  capacities (units x %dB objects): proxy %v, per-client %v\n",
		g.objectBytes, proxyCap, clientCap)

	sched, err := loadgen.BuildSchedule(tr, topo.ProxyURLs, topo.OriginURL, simCfg.ProxyFor)
	if err != nil {
		return err
	}

	opts := loadgen.Options{
		Workers:  g.workers,
		Duration: g.duration,
		Warmup:   warmup,
		Obs:      reg,
		Tracer:   driverTracer,
	}
	switch g.mode {
	case "open":
		opts.Mode = loadgen.OpenLoop
		if opts.Arrival, err = loadgen.NewPoisson(g.rate, benchSeed); err != nil {
			return err
		}
	case "closed":
		opts.Mode = loadgen.ClosedLoop
	default:
		return fmt.Errorf("unknown mode %q", g.mode)
	}

	tgt := loadgen.NewHTTPTarget()
	res, err := loadgen.Run(context.Background(), sched, tgt, opts)
	tgt.CloseIdleConnections() // before the topology drains
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

	// Driver-observed per-tier latency decomposition (none without
	// tracing).  Report-only: live tiers are wall-clock RTTs, not
	// analytic netmodel units, so no tolerance check applies here (the
	// asserted cross-check against netmodel lives in the simulator's
	// trace path).
	if d := driverTracer.Decompose(); len(d.Tiers) > 0 {
		fmt.Println()
		fmt.Println("live latency decomposition (seconds, driver-observed):")
		fmt.Print(d.Table())
	}

	if err := g.finish(tr, reg, map[string]any{
		"mode":                  g.mode,
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
