// Command bench is the repository's benchmark: one named workload per
// invocation, inputs generated from -seed, outputs checked, every
// metric printed by name with its unit, and one JSON object on the last
// line of standard output.  See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

const (
	// setupRepeats is how many times a run sets up from scratch; the
	// median is setup_s, so one slow bring-up does not move it.
	setupRepeats = 3
	// minBlocks is the fewest blocks a run measures however short its
	// time budget, so a median is always over several.
	minBlocks = 3
	// defaultSeed and heldOutSeed are the two seeds with committed
	// goldens; heldOutSeed is not to be used while tuning a change.
	defaultSeed = 1
	heldOutSeed = 2
)

// workload is one named set of inputs.
type workload struct {
	name string
	why  string
	// run measures the workload: the end-to-end metrics with traced
	// false, the per-layer ones with traced true.
	run func(o options) (*runOutput, error)
	// sizes returns the frozen sizes at the given scale, for the record.
	sizes func(scale float64) any
}

var workloads = []workload{
	{
		name:  "sim_compare",
		why:   "ProWGen trace replayed serially through the seven schemes plus Squirrel, exact directory, no churn: sim, cache and trace do all the work; p50_us/p99_us = median/slowest scheme's cost per request",
		run:   func(o options) (*runOutput, error) { return runSim(simCompare.scaled(o.scale), o) },
		sizes: func(s float64) any { return simCompare.scaled(s) },
	},
	{
		name:  "sim_churn",
		why:   "Hier-GD and Squirrel only, Bloom directory, a client failure and re-join every 500 requests: pastry, p2p, bloom and directory dominate, LFU and FC engines idle; p50_us/p99_us as on sim_compare",
		run:   func(o options) (*runOutput, error) { return runSim(simChurn.scaled(o.scale), o) },
		sizes: func(s float64) any { return simChurn.scaled(s) },
	},
	{
		name:  "live_hit",
		why:   "512 B objects, working set smaller than one proxy's memory, so every request is a proxy memory hit: handler, store.Get, net/http and client transport where per-request cost dominates",
		run:   func(o options) (*runOutput, error) { return runLive(liveHit.scaled(o.scale), o) },
		sizes: func(s float64) any { return liveHit.scaled(s) },
	},
	{
		name:  "live_cascade",
		why:   "8 KiB objects, working set 20x one proxy's memory, client caches 3x the proxy, in seeded random order: every miss path runs (directory, LAN peer fetch, remote proxy, origin, eviction and pass-down)",
		run:   func(o options) (*runOutput, error) { return runLive(liveCascade.scaled(o.scale), o) },
		sizes: func(s float64) any { return liveCascade.scaled(s) },
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options is one invocation's arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	outDir   string
	// scale shrinks the frozen sizes; only the tests set it below 1
	// (goldens apply at 1).
	scale float64
	// goldenDir overrides the embedded goldens (tests point it at a
	// directory holding a wrong one).
	goldenDir string
	// fault wraps every proxy handler of a live workload (tests inject a
	// broken reply through it).
	fault func(http.Handler) http.Handler
}

// runOutput is what measuring a workload produces.
type runOutput struct {
	e2e   map[string]float64
	layer map[string]float64
	// blocks are the measured units behind the end-to-end medians.
	blocks            []block
	attempted, failed int
	// firstErr is the first failed operation; problems lists every
	// correctness check that did not hold.  Either makes the run
	// incorrect.
	firstErr    error
	problems    []string
	fingerprint string
	record      map[string]any
}

func newRunOutput() *runOutput {
	return &runOutput{e2e: map[string]float64{}, layer: map[string]float64{}, record: map[string]any{}}
}

func (o *runOutput) addBlocks(blocks []block) {
	for _, b := range blocks {
		o.blocks = append(o.blocks, b)
		o.attempted += b.reqs
		o.failed += b.failed
	}
}

func (o *runOutput) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *runOutput) correct() bool {
	return o.failed == 0 && o.firstErr == nil && len(o.problems) == 0
}

// jsonMetric and jsonResult are the last-line contract.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// result assembles the last-line object: every metric of the catalogue
// for this kind of run, nothing else.
func (o *runOutput) result(traced bool) (jsonResult, error) {
	defs, values := endToEnd, o.e2e
	if traced {
		defs, values = perLayer, o.layer
	}
	res := jsonResult{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]jsonMetric, len(defs))}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := res.Metrics[name]; !ok {
			return res, fmt.Errorf("metric %s is not in the catalogue", name)
		}
	}
	return res, nil
}

// runRecord ties a number to the box and input that produced it.
func runRecord(o options, w workload, out *runOutput) map[string]any {
	rec := map[string]any{
		"workload":          o.workload,
		"seed":              o.seed,
		"seconds":           o.seconds,
		"traced":            o.traced,
		"scale":             o.scale,
		"sizes":             w.sizes(o.scale),
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"go_version":        runtime.Version(),
		"commit":            commit(),
		"trace_fingerprint": out.fingerprint,
		"blocks":            len(out.blocks),
	}
	// Once per run: the traced run has it as a layer metric already.
	if v, ok := out.layer["host.canary_ns"]; ok {
		rec["host_canary_ns"] = v
	} else {
		rec["host_canary_ns"] = canaryNs()
	}
	if len(out.blocks) > 0 {
		// The blocks behind the medians, in the order they ran.
		var rates, p99s, steals []float64
		for _, b := range out.blocks {
			rates = append(rates, math.Round(float64(b.reqs)/b.wallS))
			p99s = append(p99s, math.Round(b.p99us))
			steals = append(steals, math.Round(1000*b.stealS/b.wallS)/1000)
		}
		rec["block_req_per_s"], rec["block_p99_us"], rec["block_steal_cpus"] = rates, p99s, steals
		rec["requests_per_block"] = out.blocks[0].reqs
		rec["latency_samples_per_block"] = out.blocks[0].samples
		rec["latency_samples_beyond_p99_per_block"] = out.blocks[0].samples / 100
	}
	for k, v := range out.record {
		rec[k] = v
	}
	return rec
}

// commit is the VCS revision stamped into the binary, when there is one
// (the acceptance checkout is not a git repository).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	var o options
	var trace int
	var calibrate bool
	var writeGolden bool
	var manifest bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: sim_compare, sim_churn, live_hit or live_cascade")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "time budget of the measured part")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&o.outDir, "out", "out", "directory for spans, records and scratch files")
	flag.BoolVar(&calibrate, "calibrate", false, "run every workload ten times with -seed, self against self, and write noise.json")
	flag.BoolVar(&writeGolden, "write-golden", false, "write the sim workloads' result digests for -seed into golden/")
	flag.BoolVar(&manifest, "manifest", false, "print BENCHMARK.json as the catalogue defines it")
	flag.Parse()
	o.traced = trace != 0
	o.scale = 1

	// One process, at most two cores: the box this is sized for.
	if runtime.NumCPU() < 2 {
		runtime.GOMAXPROCS(1)
	} else {
		runtime.GOMAXPROCS(2)
	}

	var err error
	switch {
	case manifest:
		err = printManifest(os.Stdout)
	case calibrate:
		err = runCalibrate(o)
	case writeGolden:
		err = writeGoldens(o)
	default:
		err = runOne(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne measures one workload and prints its report.  An incorrect run
// prints its last line too (correct false) and then returns an error,
// so the exit code is non-zero.
func runOne(o options, stdout io.Writer) error {
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.scale <= 0 || o.scale > 1 {
		return fmt.Errorf("scale %g outside (0,1]", o.scale)
	}
	start := time.Now()
	out, err := w.run(o)
	if err != nil {
		return err
	}
	if !o.traced {
		out.e2e["peak_rss_mb"] = peakRSSMiB()
	}
	res, err := out.result(o.traced)
	if err != nil {
		return err
	}
	rec := runRecord(o, w, out)
	rec["wall_seconds"] = time.Since(start).Seconds()

	fmt.Fprintf(stdout, "workload %s seed %d trace %s\n", o.workload, o.seed, out.fingerprint)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(stdout, "  %-42s %16.6g %s\n", name, m.Value, m.Unit)
	}
	for _, p := range out.problems {
		fmt.Fprintf(stdout, "  INCORRECT: %s\n", p)
	}
	if out.firstErr != nil {
		fmt.Fprintf(stdout, "  FAILED: %d of %d operations, first: %v\n", out.failed, out.attempted, out.firstErr)
	}
	recJSON, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "record %s\n", recJSON)
	if err := os.MkdirAll(o.outDir, 0o755); err == nil {
		// Best effort: the record is also on standard output.
		_ = os.WriteFile(filepath.Join(o.outDir, o.workload+".record.json"), append(recJSON, '\n'), 0o644)
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", last)
	if !res.Correct {
		return fmt.Errorf("%s: incorrect run (%d failed, %d checks)", o.workload, out.failed, len(out.problems))
	}
	return nil
}
