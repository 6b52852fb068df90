package core

import (
	"sync"
	"sync/atomic"
)

// stealScheduler runs a fixed batch of independent jobs on a
// work-stealing worker pool.  Jobs are dealt round-robin into
// per-worker queues; a worker drains its own queue from the front and,
// when empty, steals the back half of the first non-empty victim
// queue.  Because the job set is fixed (jobs never spawn jobs), a
// worker that scans every queue and finds nothing can exit: no queued
// work remains, and jobs still executing on other workers produce no
// new ones.
//
// Determinism does not depend on the schedule: every job writes its
// result into a slot addressed by the job itself (series, point), so
// any worker count — and any steal interleaving — assembles the same
// ordered output.  That argument lives in DESIGN.md §14 and is
// property-tested by TestSweepSchedulerDeterminism.
type stealScheduler struct {
	queues []jobQueue
	// steals counts successful steal operations (batches moved);
	// stolenJobs counts the jobs those batches carried.
	steals     atomic.Int64
	stolenJobs atomic.Int64
}

type jobQueue struct {
	mu   sync.Mutex
	jobs []int // indices into the caller's job slice
}

// newStealScheduler deals njobs indices round-robin across nworkers
// queues, so heterogeneous job costs start evenly spread.
func newStealScheduler(nworkers, njobs int) *stealScheduler {
	s := &stealScheduler{queues: make([]jobQueue, nworkers)}
	for i := 0; i < njobs; i++ {
		q := &s.queues[i%nworkers]
		q.jobs = append(q.jobs, i)
	}
	return s
}

// pop takes the next job from the front of the worker's own queue.
func (q *jobQueue) pop() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.jobs) == 0 {
		return 0, false
	}
	j := q.jobs[0]
	q.jobs = q.jobs[1:]
	return j, true
}

// stealFrom moves the back half of the victim's queue out.  The slice
// is copied under the victim's lock so the thief can append to its own
// queue without holding two locks (no lock-order cycle).
func (q *jobQueue) stealFrom() []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.jobs)
	if n == 0 {
		return nil
	}
	take := (n + 1) / 2
	stolen := make([]int, take)
	copy(stolen, q.jobs[n-take:])
	q.jobs = q.jobs[:n-take]
	return stolen
}

// next returns the worker's next job: its own queue first, then a
// steal scan over the other queues.  ok=false means the whole batch
// is drained (for this worker) and the worker should exit.
func (s *stealScheduler) next(w int) (int, bool) {
	if j, ok := s.queues[w].pop(); ok {
		return j, true
	}
	n := len(s.queues)
	for off := 1; off < n; off++ {
		stolen := s.queues[(w+off)%n].stealFrom()
		if len(stolen) == 0 {
			continue
		}
		s.steals.Add(1)
		s.stolenJobs.Add(int64(len(stolen)))
		q := &s.queues[w]
		q.mu.Lock()
		q.jobs = append(q.jobs, stolen...)
		q.mu.Unlock()
		if j, ok := q.pop(); ok {
			return j, true
		}
	}
	return 0, false
}

// RunJobs executes exec(0..njobs-1) across the work-stealing pool with
// up to nworkers workers and blocks until every job completes.  It is
// the sweep scheduler behind runSweep, exported for drivers that batch
// independent simulator replays (the repo benchmark, bench/).  The returned
// count is the number of successful steal operations (telemetry).
func RunJobs(nworkers, njobs int, exec func(job int)) (steals int64) {
	if nworkers > njobs {
		nworkers = njobs
	}
	if nworkers < 1 {
		nworkers = 1
	}
	s := newStealScheduler(nworkers, njobs)
	s.run(exec)
	return s.steals.Load()
}

// run executes exec(jobIndex) for every dealt job across the pool and
// blocks until all workers drain.
func (s *stealScheduler) run(exec func(jobIndex int)) {
	var wg sync.WaitGroup
	for w := range s.queues {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				j, ok := s.next(w)
				if !ok {
					return
				}
				exec(j)
			}
		}(w)
	}
	wg.Wait()
}
