// Command webcachesim regenerates the paper's evaluation figures
// (Zhu & Hu, ICPP 2003) as latency-gain tables.
//
// Usage:
//
//	webcachesim -fig 2a                  # one figure
//	webcachesim -fig all -scale 0.2      # every figure, then the paper's claims
//	webcachesim -fig 5a -replicates 5    # multi-seed with 95% CIs
//	webcachesim -fig 2a -json            # figures as JSON
//	webcachesim -run hier-gd -frac 0.2   # a single scheme run with details
//	webcachesim -compare -frac 0.2       # every scheme (and Squirrel) side by side
//	webcachesim -compare -preset dec-isp # ... on a preset trace family
//	webcachesim -compare -trace corp.bin # ... on an external trace file
//	webcachesim -presets                 # list the workload families
//
// Observability (see METRICS.md for every metric and the manifest
// schema):
//
//	webcachesim -fig 2a -progress            # live per-job progress with ETA
//	webcachesim -fig 2a -metrics             # dump the metric registry to stderr
//	webcachesim -fig 2a -manifest run.json   # write a run-manifest JSON document
//	webcachesim -fig 2a -cpuprofile cpu.out  # CPU profile for go tool pprof
//	webcachesim -fig 2a -memprofile mem.out  # heap profile on exit
//
// Correctness:
//
//	webcachesim -compare -check              # run with cross-layer invariant checking
//	webcachesim -run hier-gd -check          # ... on a single scheme
//
// Reproducibility flags: -seed picks the workload/simulation seed,
// -workers bounds sweep parallelism (0 = NumCPU), -ucb swaps in the
// UCB-like trace for -run/-compare, and -v prints per-figure timing.
//
// Scale 1.0 replays the paper's full one-million-request workloads.
// Smaller scales cost a fraction of the time but do not keep every
// shape: at 0.05 some gains, and the verdicts of claims (1) and (4),
// differ from those at 1.0 (results/figures.md holds 1.0 and 0.2).
//
// After the figures, -fig all prints the verdict of each of the paper's
// five claims (core.Claims; on stderr under -json).  It exits non-zero
// when a claim cannot be evaluated, never because one fails.  `make
// paper` renders both scales' runs into results/figures.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"webcache"
	"webcache/internal/core"
	"webcache/internal/obs"
)

func main() {
	var (
		fig        = flag.String("fig", "", "figure to regenerate: 2a 2b 3 4 5a 5b 5c 5d, or 'all'")
		runOne     = flag.String("run", "", "run a single scheme (nc, sc, fc, nc-ec, sc-ec, fc-ec, hier-gd, squirrel) and print details")
		scale      = flag.Float64("scale", 0.2, "workload scale (1.0 = the paper's 1M requests)")
		frac       = flag.Float64("frac", 0.5, "proxy cache size fraction for -run")
		seed       = flag.Int64("seed", 1, "random seed")
		workers    = flag.Int("workers", 0, "sweep parallelism (0 = NumCPU)")
		jsonOut    = flag.Bool("json", false, "emit figures as JSON")
		replicates = flag.Int("replicates", 1, "seeds per figure; >1 adds 95% confidence intervals")
		ucb        = flag.Bool("ucb", false, "use the UCB-like trace for -run/-compare")
		traceFile  = flag.String("trace", "", "replay an external trace file for -run/-compare (binary or text)")
		preset     = flag.String("preset", "", "use a workload preset family for -run/-compare (see -presets)")
		listPre    = flag.Bool("presets", false, "list workload preset families and exit")
		compare    = flag.Bool("compare", false, "run every scheme (plus the Squirrel baseline) at -frac and tabulate")
		check      = flag.Bool("check", false, "run with cross-layer invariant checking (shadow oracles on every cache, directory, ring, and cluster; see DESIGN.md); exits non-zero on violations")
		verbose    = flag.Bool("v", false, "print timing")
	)
	sess := obs.NewSession(flag.CommandLine, "webcachesim")
	flag.Parse()

	if *listPre {
		for _, p := range webcache.WorkloadPresets() {
			fmt.Printf("%-16s %s\n", p.Name, p.Description)
		}
		return
	}
	if !*compare && *runOne == "" && *fig == "" {
		flag.Usage()
		os.Exit(2)
	}

	if err := sess.Start(); err != nil {
		fatal(err)
	}
	for k, v := range map[string]any{
		"fig": *fig, "run": *runOne, "compare": *compare,
		"scale": *scale, "frac": *frac, "seed": *seed,
		"workers": *workers, "replicates": *replicates,
		"ucb": *ucb, "trace": *traceFile, "preset": *preset,
	} {
		sess.SetConfig(k, v)
	}

	var chk *webcache.Checker
	if *check {
		chk = webcache.NewChecker(sess.Reg)
	}

	src := traceSource{scale: *scale, seed: *seed, ucb: *ucb, file: *traceFile, preset: *preset}
	var err error
	switch {
	case *compare:
		err = compareSchemes(src, *frac, sess, chk)
	case *runOne != "":
		err = runScheme(*runOne, src, *frac, sess, chk)
	default:
		ids := []string{*fig}
		if *fig == "all" {
			ids = webcache.FigureIDs()
		}
		sess.SetNote("figures", ids)
		opts := webcache.FigureOptions{Scale: *scale, Seed: *seed, Workers: *workers, Check: chk}
		var figs []*webcache.Figure
		for _, id := range ids {
			var f *webcache.Figure
			if f, err = runFigure(id, opts, *replicates, *jsonOut, sess, *verbose); err != nil {
				break
			}
			figs = append(figs, f)
		}
		if err == nil && *fig == "all" {
			err = printClaims(figs, *jsonOut)
		}
	}
	if err == nil && chk != nil {
		fmt.Printf("\ninvariants: %d checks, %d violations\n", chk.Checks(), chk.ViolationCount())
		err = chk.Err()
	}
	if cerr := sess.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
}

// runFigure regenerates and renders one figure, timing it for -v and
// reporting sweep progress when enabled.
func runFigure(id string, opts webcache.FigureOptions, replicates int, jsonOut bool, sess *obs.Session, verbose bool) (*webcache.Figure, error) {
	start := time.Now()
	opts.Obs = sess.Reg
	progress, finishProgress := sess.Progress("fig " + id)
	opts.Progress = progress

	// One replicate is the plain run, its CIs zero.
	f, err := webcache.RunFigureReplicated(id, opts, replicates)
	finishProgress()
	took := time.Since(start)
	if err != nil {
		return nil, err
	}
	if jsonOut {
		if err := webcache.WriteFigureJSON(os.Stdout, f); err != nil {
			return nil, err
		}
	} else {
		fmt.Println(webcache.FormatTable(f))
	}
	if verbose {
		fmt.Fprintf(os.Stderr, "figure %s took %v\n", id, took.Round(time.Millisecond))
	}
	return f, nil
}

// printClaims prints the verdict of each of the paper's claims over
// the figures of -fig all, on stderr when stdout carries JSON.
func printClaims(figs []*webcache.Figure, jsonOut bool) error {
	results, err := core.EvaluateClaims(figs)
	if err != nil {
		return err
	}
	w := os.Stdout
	if jsonOut {
		w = os.Stderr
	}
	fmt.Fprintln(w, "Claims (§5.3), read at 10% and 20% proxy caches:")
	for _, r := range results {
		fmt.Fprintf(w, "(%d) %s\n    %v\n", r.N, r.Text, r)
	}
	return nil
}

func runScheme(name string, src traceSource, frac float64, sess *obs.Session, chk *webcache.Checker) error {
	scheme, err := webcache.ParseScheme(name)
	if err != nil {
		return err
	}
	tr, st, err := src.load(sess)
	if err != nil {
		return err
	}
	fmt.Printf("workload: %s\n", st)

	nc, err := webcache.Run(tr, webcache.Config{Scheme: webcache.NC, ProxyCacheFrac: frac, Seed: src.seed, Obs: sess.Reg, Check: chk})
	if err != nil {
		return err
	}
	res, err := webcache.Run(tr, webcache.Config{Scheme: scheme, ProxyCacheFrac: frac, Seed: src.seed, Obs: sess.Reg, Check: chk, Tracer: sess.Tracer})
	if err != nil {
		return err
	}
	sess.SetNote("latency_gain", webcache.Gain(res.AvgLatency, nc.AvgLatency))
	fmt.Printf("\n%s at %.0f%% proxy cache:\n", scheme, frac*100)
	fmt.Printf("  avg latency      %.4f (NC: %.4f)\n", res.AvgLatency, nc.AvgLatency)
	fmt.Printf("  latency gain     %.1f%%\n", 100*webcache.Gain(res.AvgLatency, nc.AvgLatency))
	for _, src := range []webcache.Source{webcache.SrcLocalProxy, webcache.SrcP2P, webcache.SrcRemoteProxy, webcache.SrcServer} {
		fmt.Printf("  %-16s %.1f%%\n", src.String(), 100*res.HitRatio(src))
	}
	if scheme == webcache.HierGD {
		fmt.Printf("  p2p stores=%d diversions=%d lookups=%d hits=%d pushes=%d messages=%d piggyback-saves=%d\n",
			res.P2P.Stores, res.P2P.Diversions, res.P2P.Lookups, res.P2P.LookupHits,
			res.P2P.Pushes, res.P2P.Messages, res.P2P.PiggybackSave)
		fmt.Printf("  directory: falsePositives=%d memory=%dB\n",
			res.DirectoryFalsePositives, res.DirectoryMemoryBytes)
	}
	fmt.Printf("  infinite cache sizes: %v, proxy caps: %v\n",
		res.InfiniteCacheSizes, res.ProxyCapacities)
	if sess.Tracer != nil {
		// Fold the sampled span traces into a per-tier latency
		// decomposition and cross-check each tier's span-derived mean
		// against the analytic netmodel latency (METRICS.md "Span
		// tracing"); the known scheme deviations are documented on
		// CheckDecomposition.
		rep := webcache.CheckDecomposition(webcache.DefaultNetwork(), sess.Tracer.Decompose(), 1e-9)
		fmt.Printf("\nlatency decomposition (%d sampled traces, span-derived vs analytic):\n%s",
			sess.Tracer.Len(), rep.Table())
		sess.SetNote("decomposition", rep)
	}
	return nil
}

// traceSource selects the -run/-compare workload: an external file, a
// preset family, the UCB-like trace, or the scaled paper default.
type traceSource struct {
	scale  float64
	seed   int64
	ucb    bool
	file   string
	preset string
}

// load loads the workload, records its identity in the session's
// manifest, and returns it with its statistics.
func (src traceSource) load(sess *obs.Session) (*webcache.Trace, webcache.TraceStats, error) {
	var tr *webcache.Trace
	var err error
	switch {
	case src.file != "":
		tr, err = webcache.ReadTraceFile(src.file)
	case src.preset != "":
		tr, err = webcache.GeneratePresetWorkload(src.preset, int(1_000_000*src.scale), src.seed)
	case src.ucb:
		tr, err = webcache.GenerateUCBWorkload(webcache.UCBConfig{Scale: src.scale / 9.2, Seed: src.seed})
	default:
		cfg := webcache.DefaultWorkload()
		cfg.NumRequests = int(float64(cfg.NumRequests) * src.scale)
		cfg.NumObjects = int(float64(cfg.NumObjects) * src.scale)
		cfg.Seed = src.seed
		tr, err = webcache.GenerateWorkload(cfg)
	}
	if err != nil {
		return nil, webcache.TraceStats{}, err
	}
	st := webcache.AnalyzeTrace(tr)
	sess.SetTrace(tr, map[string]any{
		"distinct_objects": st.DistinctObjs,
		"distinct_clients": st.DistinctClients,
		"zipf_alpha":       st.ZipfAlpha,
	})
	return tr, st, nil
}

func compareSchemes(src traceSource, frac float64, sess *obs.Session, chk *webcache.Checker) error {
	tr, st, err := src.load(sess)
	if err != nil {
		return err
	}
	fmt.Printf("workload: %s\nproxy cache: %.0f%% of infinite\n\n", st, frac*100)
	nc, err := webcache.Run(tr, webcache.Config{Scheme: webcache.NC, ProxyCacheFrac: frac, Seed: src.seed, Obs: sess.Reg, Check: chk})
	if err != nil {
		return err
	}
	fmt.Printf("%-9s %9s %7s %7s %6s %8s %8s %10s\n",
		"scheme", "latency", "gain%", "proxy%", "p2p%", "remote%", "server%", "srv-bytes%")
	schemes := append(webcache.AllSchemes(), webcache.Squirrel)
	for _, s := range schemes {
		res, err := webcache.Run(tr, webcache.Config{Scheme: s, ProxyCacheFrac: frac, Seed: src.seed, Obs: sess.Reg, Check: chk})
		if err != nil {
			return err
		}
		fmt.Printf("%-9s %9.4f %7.1f %7.1f %6.1f %8.1f %8.1f %10.1f\n",
			s, res.AvgLatency,
			100*webcache.Gain(res.AvgLatency, nc.AvgLatency),
			100*res.HitRatio(webcache.SrcLocalProxy),
			100*res.HitRatio(webcache.SrcP2P),
			100*res.HitRatio(webcache.SrcRemoteProxy),
			100*res.HitRatio(webcache.SrcServer),
			100*res.ServerByteRatio())
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "webcachesim:", err)
	if strings.Contains(err.Error(), "unknown figure") {
		fmt.Fprintln(os.Stderr, "known figures:", strings.Join(webcache.FigureIDs(), " "))
	}
	os.Exit(1)
}
