// Package core orchestrates the paper's experiments: it generates the
// workloads, sweeps cache sizes and parameters, computes the
// latency-gain metric, and assembles the series behind every figure in
// the evaluation section (§5.2).
//
// Every figure is identified by its paper label ("2a".."5d"); RunFigure
// regenerates it as a Figure (series of latency-gain-vs-cache-size
// points) that cmd/webcachesim prints and EXPERIMENTS.md records.
// Sweep points and their NC baselines are independent simulations and
// run on one worker pool.
package core

import (
	"fmt"
	"math"
	"runtime"

	"webcache/internal/invariant"
	"webcache/internal/obs"
	"webcache/internal/prowgen"
	"webcache/internal/trace"
)

// Point is one sweep sample: the proxy cache size (fraction of the
// infinite cache size) and the latency gain over NC at that size.
type Point struct {
	CacheFrac  float64
	Gain       float64 // 1 - L/L_NC
	AvgLatency float64
	NCLatency  float64
	// GainCI is the 95% confidence half-width of Gain across seeds;
	// zero for single-replicate runs (see RunFigureReplicated).
	GainCI float64
}

// Series is one curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is a regenerated paper figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Options scales and seeds a figure run.
type Options struct {
	// Scale multiplies the paper's workload size (1.0 = one million
	// requests over 10,000 objects).  Benches and tests use smaller
	// scales; shapes are stable from ~0.05 up.
	Scale float64
	// Fracs overrides the cache-size sweep (default 10%..100%).
	Fracs []float64
	// Workers bounds sweep parallelism (default NumCPU).
	Workers int
	// Seed drives workload generation and simulation.
	Seed int64
	// Progress, if non-nil, is called after every completed sweep job
	// (NC baseline replays included) with the cumulative finished count
	// and the figure's job total — the hook behind webcachesim's
	// -progress live ETA display.  Callbacks may arrive concurrently
	// from the worker pool.
	Progress func(done, total int)
	// Obs, if non-nil, receives sweep instrumentation: per-job timing
	// ("core.sweep.job"), job counts, and worker utilization, plus
	// every run's sim.* metrics (the registry is passed down into each
	// simulation).  See METRICS.md.
	Obs *obs.Registry
	// Check, if non-nil, threads the invariant subsystem into every
	// simulation of the sweep (shadow-checked policies, directory and
	// ring oracles, P2P conservation — see DESIGN.md).  The Checker is
	// concurrency-safe, so all sweep workers share it.
	Check *invariant.Checker
}

func (o *Options) fill() error {
	if o.Scale < 0 || math.IsNaN(o.Scale) {
		return fmt.Errorf("core: workload scale %g, want > 0 (or 0 for the paper's size)", o.Scale)
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	if len(o.Fracs) == 0 {
		o.Fracs = DefaultFracs()
	}
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	return nil
}

// DefaultFracs is the paper's x-axis: 10%..100% in steps of 10.
func DefaultFracs() []float64 {
	out := make([]float64, 10)
	for i := range out {
		out[i] = float64(i+1) / 10
	}
	return out
}

// paperTrace generates the default synthetic workload at the given
// scale (paper §5.1: 1M requests, 10k objects, 50% one-timers, α=0.7).
// clients == 0 uses the generator default; figures with large
// client->proxy mappings (5c, 5d) pass the population they need.
func paperTrace(scale float64, seed int64, alpha, stackFrac float64, clients int) (*trace.Trace, error) {
	cfg := prowgen.Config{
		NumRequests:  int(float64(prowgen.DefaultNumRequests) * scale),
		NumObjects:   int(float64(prowgen.DefaultNumObjects) * scale),
		NumClients:   clients,
		OneTimerFrac: prowgen.DefaultOneTimerFrac,
		Alpha:        alpha,
		StackFrac:    stackFrac,
		Seed:         seed,
	}
	if cfg.NumClients == 0 {
		cfg.NumClients = prowgen.DefaultNumClients
	}
	if cfg.NumObjects < 200 {
		cfg.NumObjects = 200
	}
	if cfg.NumRequests < 20*cfg.NumObjects {
		cfg.NumRequests = 20 * cfg.NumObjects
	}
	// Every client must appear often enough that each cluster sees a
	// meaningful reference stream.
	if cfg.NumRequests < 30*cfg.NumClients {
		cfg.NumRequests = 30 * cfg.NumClients
	}
	return prowgen.Generate(cfg)
}

// FigureIDs lists the reproducible figures in paper order.
func FigureIDs() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}

// RunFigure regenerates the figure with the given paper label.
func RunFigure(id string, opts Options) (*Figure, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	for _, f := range figures {
		if f.id == id {
			curves, err := f.curves(opts)
			if err != nil {
				return nil, err
			}
			return sweep(f.id, f.title, curves, opts)
		}
	}
	return nil, fmt.Errorf("core: unknown figure %q (have %v)", id, FigureIDs())
}
