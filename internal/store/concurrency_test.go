package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"webcache/internal/invariant"
	"webcache/internal/obs"
	"webcache/internal/trace"
)

// TestStoreConcurrentAccess hammers get/put/evict from many
// goroutines under the race detector, with the policy wrapped in the
// invariant oracle and the body-map reconciliation running
// periodically; the run must end violation-free with totals that
// reconcile.
func TestStoreConcurrentAccess(t *testing.T) {
	chk := invariant.New(nil)
	s := mustNew(t, Config{CapacityBytes: 8 << 10, Check: chk, Metrics: obs.NewRegistry("race")})
	const workers = 8
	const opsPerWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				key := trace.ObjectID((w*opsPerWorker + i*7) % 257)
				if _, ok := s.Get(key); !ok {
					s.Put(key, Object{HexKey: fmt.Sprintf("%x", key), Body: body(1 + i%128), Cost: 1})
				}
				if i%97 == 0 {
					s.Headroom()
					s.Len()
					s.Used()
				}
			}
		}(w)
	}
	wg.Wait()
	s.CheckInvariants()
	s.PublishMetrics()
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}
	if chk.Checks() == 0 {
		t.Fatal("invariant checker saw no assertions")
	}
	// The policy's totals must equal the resident bodies when quiescent.
	var used uint64
	for _, obj := range s.bodies {
		used += uint64(len(obj.Body))
	}
	if used != s.Used() || len(s.bodies) != s.Len() {
		t.Fatalf("policy totals (%d, %d) != resident bodies (%d, %d)", s.Used(), s.Len(), used, len(s.bodies))
	}
}

// TestStoreCoalescedLoad parks K concurrent misses of one key on a
// single loader call: exactly one load runs, every caller gets the
// body, and the coalesced counter accounts for the K-1 waiters.
func TestStoreCoalescedLoad(t *testing.T) {
	reg := obs.NewRegistry("coalesce")
	s := mustNew(t, Config{CapacityBytes: 1 << 20, Metrics: reg})
	const K = 32
	var loads atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]LoadView, K)
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.GetOrLoad(42, func() (Object, string, error) {
				loads.Add(1)
				<-gate // hold the flight open until every goroutine has joined
				return Object{HexKey: "2a", Body: body(100), Cost: 1}, "origin", nil
			})
		}(i)
	}
	// Wait until the winner is inside the loader and all K-1 others
	// are parked on the flight, then release the loader.
	for {
		s.flight.mu.Lock()
		c, inFlight := s.flight.calls[42]
		joined := 0
		if inFlight {
			joined = c.dups
		}
		s.flight.mu.Unlock()
		if joined == K-1 {
			break
		}
	}
	close(gate)
	wg.Wait()

	if got := loads.Load(); got != 1 {
		t.Fatalf("%d loader calls under %d concurrent misses, want 1", got, K)
	}
	winners, coalesced := 0, 0
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if len(results[i].Object.Body) != 100 || results[i].Tag != "origin" {
			t.Fatalf("caller %d got %+v", i, results[i])
		}
		switch results[i].Outcome {
		case OutcomeLoaded:
			winners++
			if !results[i].Stored {
				t.Fatal("winner's load was not stored")
			}
		case OutcomeCoalesced:
			coalesced++
		default:
			t.Fatalf("caller %d outcome %v", i, results[i].Outcome)
		}
	}
	if winners != 1 || coalesced != K-1 {
		t.Fatalf("winners=%d coalesced=%d, want 1 and %d", winners, coalesced, K-1)
	}
	if got := reg.Values()["store.coalesced"]; got != K-1 {
		t.Fatalf("store.coalesced = %v, want %d", got, K-1)
	}
	if got := reg.Values()["store.loads"]; got != 1 {
		t.Fatalf("store.loads = %v, want 1", got)
	}
	// Subsequent gets are plain hits.
	if v, err := s.GetOrLoad(42, func() (Object, string, error) {
		t.Fatal("loader ran on a hit")
		return Object{}, "", nil
	}); err != nil || v.Outcome != OutcomeHit {
		t.Fatalf("post-flight GetOrLoad = (%v, %v)", v.Outcome, err)
	}
}

// TestStoreCoalescedLoadErrorPropagation: the winner's loader error
// reaches every coalesced waiter, and the failed flight leaves no
// residue — the next GetOrLoad runs a fresh loader.
func TestStoreCoalescedLoadErrorPropagation(t *testing.T) {
	s := mustNew(t, Config{CapacityBytes: 1 << 20})
	wantErr := errors.New("origin down")
	var loads atomic.Int64
	gate := make(chan struct{})
	const K = 16
	var wg sync.WaitGroup
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.GetOrLoad(9, func() (Object, string, error) {
				loads.Add(1)
				<-gate
				return Object{}, "", wantErr
			})
		}(i)
	}
	for {
		s.flight.mu.Lock()
		c, inFlight := s.flight.calls[9]
		joined := 0
		if inFlight {
			joined = c.dups
		}
		s.flight.mu.Unlock()
		if joined == K-1 {
			break
		}
	}
	close(gate)
	wg.Wait()
	if loads.Load() != 1 {
		t.Fatalf("%d loader calls, want 1", loads.Load())
	}
	for i, err := range errs {
		if !errors.Is(err, wantErr) {
			t.Fatalf("caller %d got %v, want the loader error", i, err)
		}
	}
	// The flight is gone; a retry loads afresh and succeeds.
	v, err := s.GetOrLoad(9, func() (Object, string, error) {
		return Object{Body: body(10), Cost: 1}, "origin", nil
	})
	if err != nil || v.Outcome != OutcomeLoaded || !v.Stored {
		t.Fatalf("retry after failed flight = (%+v, %v)", v, err)
	}
}

// TestStoreCoalesceEmptyBody: an empty loaded body is served to every
// waiter but never cached (ErrEmptyObject inside the flight is not an
// error to callers).
func TestStoreCoalesceEmptyBody(t *testing.T) {
	s := mustNew(t, Config{CapacityBytes: 1 << 20})
	v, err := s.GetOrLoad(5, func() (Object, string, error) {
		return Object{HexKey: "05"}, "origin", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Stored || v.Outcome != OutcomeLoaded {
		t.Fatalf("empty body: %+v", v)
	}
	if s.Len() != 0 {
		t.Fatal("empty body was cached")
	}
}

// TestStoreParallelDistinctLoads: misses on distinct keys do not
// serialize on each other's flights.
func TestStoreParallelDistinctLoads(t *testing.T) {
	s := mustNew(t, Config{CapacityBytes: 1 << 20})
	const K = 64
	var loads atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := s.GetOrLoad(trace.ObjectID(i), func() (Object, string, error) {
				loads.Add(1)
				return Object{Body: body(32), Cost: 1}, "origin", nil
			})
			if err != nil || v.Outcome != OutcomeLoaded {
				t.Errorf("key %d: (%v, %v)", i, v.Outcome, err)
			}
		}(i)
	}
	wg.Wait()
	if loads.Load() != K {
		t.Fatalf("%d loads for %d distinct keys", loads.Load(), K)
	}
	if s.Len() != K {
		t.Fatalf("Len = %d, want %d", s.Len(), K)
	}
}
