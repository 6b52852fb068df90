package core

import (
	"sync"
	"testing"

	"webcache/internal/obs"
)

// TestSweepProgressAndObs runs one small figure with both observability
// hooks attached, serially and on a pool: the progress callback must
// walk to the job total, and the registry must capture sweep timing,
// worker utilization, and the per-run sim.* metrics.  The jobs are the
// figure's points plus its distinct NC baselines, each replayed exactly
// once whatever the worker count.
func TestSweepProgressAndObs(t *testing.T) {
	for _, workers := range []int{1, 4} {
		reg := obs.NewRegistry("test-sweep")
		var mu sync.Mutex
		var lastDone, total, calls int
		opts := tinyOpts()
		opts.Workers = workers
		opts.Obs = reg
		opts.Progress = func(done, tot int) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if done > lastDone {
				lastDone = done
			}
			total = tot
		}

		fig, err := RunFigure("2a", opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(fig.Series) == 0 {
			t.Fatal("empty figure")
		}

		// Figure 2a sweeps one trace under one network model, so its
		// points share one NC baseline per cache size.
		wantJobs := len(opts.Fracs)
		for _, s := range fig.Series {
			wantJobs += len(s.Points)
		}
		if total != wantJobs {
			t.Fatalf("workers=%d: progress total = %d, want %d jobs", workers, total, wantJobs)
		}
		if lastDone != total {
			t.Fatalf("workers=%d: final progress %d/%d — callback must reach the total", workers, lastDone, total)
		}
		if calls != total {
			t.Fatalf("workers=%d: progress called %d times, want once per job (%d)", workers, calls, total)
		}

		vals := reg.Values()
		if vals["core.sweep.jobs"] != float64(wantJobs) {
			t.Fatalf("workers=%d: core.sweep.jobs = %g, want %d", workers, vals["core.sweep.jobs"], wantJobs)
		}
		if vals["core.sweep.job.count"] != float64(wantJobs) {
			t.Fatalf("workers=%d: core.sweep.job.count = %g, want %d", workers, vals["core.sweep.job.count"], wantJobs)
		}
		if vals["core.sweep.job.seconds"] <= 0 {
			t.Fatal("job timer recorded no time")
		}
		util := vals["core.sweep.worker_utilization"]
		if util <= 0 || util > 1.5 {
			t.Fatalf("workers=%d: worker utilization = %g, want (0, ~1]", workers, util)
		}
		if runs := vals["sim.runs"]; runs != float64(wantJobs) {
			t.Fatalf("workers=%d: sim.runs = %g, want %d (points + NC baselines)", workers, runs, wantJobs)
		}
		if vals["sim.requests"] <= 0 || vals["sim.serves.server"] <= 0 {
			t.Fatalf("sim metrics missing from sweep registry: %v", vals)
		}
	}
}
