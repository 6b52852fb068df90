//go:build !race

package loadgen

import (
	"testing"
	"time"

	"webcache/internal/obs"
)

// TestRecordAllocsPerRun: recording an outcome, which every driver
// goroutine does once per request, does not touch the heap, with or
// without a registry — warmup, served and error outcomes alike.  Each
// path is measured on its own: AllocsPerRun rounds the mean down, so
// a path that allocates on only some of the calls would read 0.
// (Excluded under the race detector, whose instrumentation allocates;
// run by `make sim-alloc`.)
func TestRecordAllocsPerRun(t *testing.T) {
	for _, reg := range []*obs.Registry{nil, obs.NewRegistry("alloc")} {
		rec := newRecorder(1, reg)
		for _, idx := range []int{0, 1} { // inside, then past, the warmup
			i := 0
			allocs := testing.AllocsPerRun(1000, func() {
				rec.record(idx, Outcome{Tier: Tier(i % NumTiers), Latency: time.Duration(i) * time.Microsecond})
				i++
			})
			if allocs != 0 {
				t.Errorf("registry=%v index=%d: record allocates %.2f objects per call, want 0", reg != nil, idx, allocs)
			}
		}
	}
}
