package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"webcache/internal/netmodel"
	"webcache/internal/sim"
	"webcache/internal/trace"
)

// curve is one series of a sweep before it runs: its label, the trace
// it replays and its scheme's configuration.  The sweep sets each
// point's ProxyCacheFrac and Seed.
type curve struct {
	label string
	tr    *trace.Trace
	cfg   sim.Config
}

// SweepSchemes runs a custom latency-gain sweep: the given schemes
// over the given proxy-cache fractions against an arbitrary trace
// (generated, ingested from Squid logs, or from a preset family).
// The NC baseline is derived from `base` automatically.  This is the
// building block behind every paper figure, exposed for downstream
// experiments.
func SweepSchemes(tr *trace.Trace, base sim.Config, schemes []sim.Scheme, fracs []float64, workers int) (*Figure, error) {
	if tr == nil || len(schemes) == 0 {
		return nil, fmt.Errorf("core: sweep needs a trace and at least one scheme")
	}
	opts := Options{Fracs: fracs, Workers: workers, Seed: base.Seed}
	if err := opts.fill(); err != nil {
		return nil, err
	}
	return sweep("sweep", "Latency gain vs. proxy cache size (custom sweep)", schemeCurves(tr, base, schemes), opts)
}

// schemeCurves is one curve per scheme, all on one trace and base
// configuration.
func schemeCurves(tr *trace.Trace, base sim.Config, schemes []sim.Scheme) []curve {
	out := make([]curve, len(schemes))
	for i, s := range schemes {
		cfg := base
		cfg.Scheme = s
		out[i] = curve{label: s.String(), tr: tr, cfg: cfg}
	}
	return out
}

// sweepJob is one replay of the pool: a (curve, fraction) point, or
// the NC baseline that points are measured against.
type sweepJob struct {
	tr    *trace.Trace
	cfg   sim.Config
	curve int // the point's curve; -1 for a baseline
	nc    int // the point's baseline job
}

// sweep draws the figure of the curves: it replays every curve at every
// fraction of opts, together with each distinct NC baseline once, as
// one RunJobs pool.  Each job writes its average latency into its own
// slot, so the schedule cannot change the output; gains are computed
// after the pool drains.  Each job is timed into opts.Obs
// ("core.sweep.job") and reported to opts.Progress, and worker
// utilization (busy time over workers x wall time) is recorded at the
// end.
func sweep(id, title string, curves []curve, opts Options) (*Figure, error) {
	// The fields a figure varies between curves that change an NC
	// replay; the rest of a curve's configuration (P2PClientCaches)
	// matters only to its own scheme.
	type ncKey struct {
		tr           *trace.Trace
		frac         float64
		proxies, cpc int
		net          netmodel.Model
	}
	baselines := map[ncKey]int{}
	var jobs []sweepJob
	for ci, c := range curves {
		for _, frac := range opts.Fracs {
			cfg := c.cfg
			cfg.ProxyCacheFrac, cfg.Seed = frac, opts.Seed
			cfg.Obs, cfg.Check = opts.Obs, opts.Check
			k := ncKey{c.tr, frac, cfg.NumProxies, cfg.ClientsPerCluster, cfg.Net}
			nc, ok := baselines[k]
			if !ok {
				nc = len(jobs)
				baselines[k] = nc
				ncCfg := cfg
				ncCfg.Scheme = sim.NC
				jobs = append(jobs, sweepJob{tr: c.tr, cfg: ncCfg, curve: -1})
			}
			jobs = append(jobs, sweepJob{tr: c.tr, cfg: cfg, curve: ci, nc: nc})
		}
	}

	latency := make([]float64, len(jobs))
	errs := make([]error, len(jobs))
	jobTimer := opts.Obs.Timer("core.sweep.job")
	workers := max(1, min(opts.Workers, len(jobs)))
	var done atomic.Int64
	start := time.Now()
	RunJobs(workers, len(jobs), func(i int) {
		defer jobTimer.Start()()
		if opts.Progress != nil {
			defer func() { opts.Progress(int(done.Add(1)), len(jobs)) }()
		}
		res, err := sim.Run(jobs[i].tr, jobs[i].cfg)
		if err != nil {
			errs[i] = err
			return
		}
		latency[i] = res.AvgLatency
	})

	if opts.Obs.Enabled() {
		opts.Obs.Counter("core.sweep.jobs").Add(int64(len(jobs)))
		// Busy time over the pool's total capacity: 1.0 means every
		// worker computed the whole time (jobs may outnumber
		// workers, so utilization is also capped by job
		// granularity).
		if wall := time.Since(start).Seconds(); wall > 0 {
			util := jobTimer.Total().Seconds() / (wall * float64(workers))
			opts.Obs.Gauge("core.sweep.worker_utilization").Set(util)
		}
	}

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	series := make([]Series, len(curves))
	for ci, c := range curves {
		series[ci].Label = c.label
	}
	for i, j := range jobs {
		if j.curve < 0 {
			continue
		}
		nc := latency[j.nc]
		series[j.curve].Points = append(series[j.curve].Points, Point{
			CacheFrac:  j.cfg.ProxyCacheFrac,
			Gain:       netmodel.Gain(latency[i], nc),
			AvgLatency: latency[i],
			NCLatency:  nc,
		})
	}
	for _, s := range series {
		sort.Slice(s.Points, func(a, b int) bool { return s.Points[a].CacheFrac < s.Points[b].CacheFrac })
	}
	return &Figure{ID: id, Title: title, XLabel: "cache size (% of infinite)", YLabel: "latency gain (%)", Series: series}, nil
}

// RunJobs executes exec(0..njobs-1) on up to nworkers workers and
// blocks until every job completes.  Each worker takes the next index
// from one shared cursor, so a worker that finishes a cheap job simply
// takes the next one and the pool stays busy however uneven the job
// costs are; the job set is fixed, so a worker that finds the cursor
// past the end can exit.  It is the pool behind every sweep, exported
// for drivers that batch independent simulator replays (the repo
// benchmark, bench/).  Callers that need a deterministic result write
// each job's output into a slot addressed by the job index.
func RunJobs(nworkers, njobs int, exec func(job int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < max(nworkers, 1) && w < njobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1)) - 1; j < njobs; j = int(next.Add(1)) - 1 {
				exec(j)
			}
		}()
	}
	wg.Wait()
}
