package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync/atomic"
	"testing"

	"webcache/internal/prowgen"
	"webcache/internal/sim"
)

// TestSweepSchedulerDeterminism is the property the scheduler's design
// comment promises: any worker count — and therefore any steal
// interleaving — assembles bit-identical ordered results, because
// every job writes into a slot addressed by (series, point), never by
// completion order.  The property is checked on a real sweep (three
// schemes over four fractions, 12 heterogeneous jobs) by digesting the
// marshalled Figure under worker counts from serial to oversubscribed.
func TestSweepSchedulerDeterminism(t *testing.T) {
	tr, err := prowgen.Generate(prowgen.Config{
		NumRequests: 6000,
		NumObjects:  600,
		NumClients:  60,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := sim.Config{ClientsPerCluster: 16, Seed: 7}
	schemes := []sim.Scheme{sim.SC, sim.FCEC, sim.HierGD}
	fracs := []float64{0.05, 0.1, 0.3, 0.5}

	digest := func(workers int) string {
		t.Helper()
		fig, err := SweepSchemes(tr, base, schemes, fracs, workers)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(fig.Series)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		return hex.EncodeToString(sum[:])
	}

	want := digest(1) // serial: the schedule-free reference
	for _, workers := range []int{2, 3, 5, 16} {
		if got := digest(workers); got != want {
			t.Errorf("sweep with %d workers diverged from serial: %s != %s", workers, got, want)
		}
	}
}

// TestRunJobsCoversEveryJobOnce sweeps the (workers, jobs) grid and
// checks the pool's contract: every job index executes exactly once,
// for any pool size including oversubscribed and degenerate ones.  Job
// bodies are skewed — low indices nearly free, every seventeenth heavy
// — so workers reach the cursor at different times; under the race
// detector (make check runs this package with -race) the real assertion
// is that the shared cursor hands no index out twice.
func TestRunJobsCoversEveryJobOnce(t *testing.T) {
	for _, nworkers := range []int{-1, 0, 1, 2, 3, 7, 64} {
		for _, njobs := range []int{0, 1, 2, 5, 31, 100, 400} {
			var sum atomic.Int64
			ran := make([]atomic.Int32, njobs)
			RunJobs(nworkers, njobs, func(j int) {
				for i := 0; i < (j%17)*(j%17)*40; i++ {
					sum.Add(1)
				}
				ran[j].Add(1)
			})
			for j := range ran {
				if got := ran[j].Load(); got != 1 {
					t.Fatalf("workers=%d jobs=%d: job %d ran %d times, want 1", nworkers, njobs, j, got)
				}
			}
		}
	}
}
