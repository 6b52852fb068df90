package loadgen

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"webcache/internal/obs"
	"webcache/internal/trace"
)

// fakeTarget records calls and answers from a per-index tier function.
type fakeTarget struct {
	calls  atomic.Int64
	tierOf func(i int) Tier
}

func (f *fakeTarget) Do(r ScheduledRequest) Outcome {
	f.calls.Add(1)
	tier := TierProxy
	if f.tierOf != nil {
		tier = f.tierOf(r.Index)
	}
	o := Outcome{Tier: tier, Latency: time.Duration(1+r.Index%10) * time.Millisecond, Status: 200}
	if tier == TierError {
		o.Status = 500
		o.Err = fmt.Errorf("fake failure")
	}
	return o
}

// constantGap is a fixed-interval Arrival for deterministic pacing tests.
type constantGap time.Duration

func (c constantGap) Next() time.Duration { return time.Duration(c) }

func testSchedule(n int) *Schedule {
	s := &Schedule{NumProxies: 1}
	for i := 0; i < n; i++ {
		s.Requests = append(s.Requests, ScheduledRequest{
			Index:  i,
			Client: trace.ClientID(i % 4),
			Object: trace.ObjectID(i),
			URL:    fmt.Sprintf("http://unused/obj/%d", i),
		})
	}
	return s
}

// Open loop on a fake clock: with a 10ms constant gap and a 100ms
// budget, exactly 10 releases fit (virtual time hits the deadline at
// release 10, the pre-release check cuts the 11th).  No wall time
// passes.
func TestOpenLoopDurationCutoffDeterministic(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	tgt := &fakeTarget{}
	res, err := Run(context.Background(), testSchedule(1000), tgt, Options{
		Mode:     OpenLoop,
		Arrival:  constantGap(10 * time.Millisecond),
		Duration: 100 * time.Millisecond,
		Clock:    clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued != 10 {
		t.Fatalf("issued %d, want 10", res.Issued)
	}
	if got := tgt.calls.Load(); got != 10 {
		t.Fatalf("target saw %d calls, want 10", got)
	}
	if res.Elapsed != 100*time.Millisecond {
		t.Fatalf("elapsed %v, want 100ms of virtual time", res.Elapsed)
	}
	// 10 issued over 100ms virtual = 100 req/s achieved.
	if res.AchievedRate < 99 || res.AchievedRate > 101 {
		t.Fatalf("achieved rate %.1f, want ~100", res.AchievedRate)
	}
}

// Without a duration budget the open loop runs the whole schedule.
func TestOpenLoopFullSchedule(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	tgt := &fakeTarget{}
	res, err := Run(context.Background(), testSchedule(250), tgt, Options{
		Mode:    OpenLoop,
		Arrival: constantGap(time.Millisecond),
		Clock:   clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued != 250 || res.Errors != 0 || res.Measured != 250 {
		t.Fatalf("issued/measured/errors = %d/%d/%d, want 250/250/0",
			res.Issued, res.Measured, res.Errors)
	}
}

// gatedTarget counts calls and holds each one until open is closed.
type gatedTarget struct {
	calls atomic.Int64
	open  chan struct{}
}

func (g *gatedTarget) Do(r ScheduledRequest) Outcome {
	g.calls.Add(1)
	<-g.open
	return Outcome{Tier: TierProxy, Latency: time.Millisecond, Status: 200}
}

// The open loop's in-flight bound: against a target that answers
// nothing until released, the first maxInflight (512) releases go out
// unthrottled, and the one after them blocks and counts as throttled.
// On a fake clock, so no wall time passes between releases.
func TestOpenLoopThrottlesPastMaxInflight(t *testing.T) {
	for _, tc := range []struct {
		requests      int
		wantThrottled int
	}{
		{512, 0},
		{513, 1},
	} {
		reg := obs.NewRegistry("test")
		throttled := reg.Counter("loadgen.throttled")
		tgt := &gatedTarget{open: make(chan struct{})}
		type outcome struct {
			res *Result
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := Run(context.Background(), testSchedule(tc.requests), tgt, Options{
				Mode:    OpenLoop,
				Arrival: constantGap(time.Millisecond),
				Clock:   NewFakeClock(time.Unix(0, 0)),
				Obs:     reg,
			})
			done <- outcome{res, err}
		}()
		// Hold every call until 512 are in flight and, when one
		// more is scheduled, until its release has blocked.
		deadline := time.Now().Add(10 * time.Second)
		for tgt.calls.Load() < 512 || throttled.Value() < int64(tc.wantThrottled) {
			if time.Now().After(deadline) {
				t.Fatalf("%d requests: %d in flight, %d throttled after 10s",
					tc.requests, tgt.calls.Load(), throttled.Value())
			}
			time.Sleep(time.Millisecond)
		}
		if got := tgt.calls.Load(); got != 512 {
			t.Fatalf("%d requests: %d in flight while the target holds them, want 512",
				tc.requests, got)
		}
		close(tgt.open)
		o := <-done
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.res.Issued != tc.requests || o.res.Throttled != tc.wantThrottled {
			t.Fatalf("%d requests: issued %d, throttled %d, want %d throttled",
				tc.requests, o.res.Issued, o.res.Throttled, tc.wantThrottled)
		}
		if got := throttled.Value(); got != int64(tc.wantThrottled) {
			t.Fatalf("%d requests: loadgen.throttled = %d, want %d", tc.requests, got, tc.wantThrottled)
		}
	}
}

// Closed loop: 4 workers drain 100 requests exactly once each; the
// first 10 outcomes are warmup-discarded from accounting but still
// issued (they warm the caches).
func TestClosedLoopWarmupAccounting(t *testing.T) {
	tgt := &fakeTarget{}
	res, err := Run(context.Background(), testSchedule(100), tgt, Options{
		Mode:    ClosedLoop,
		Workers: 4,
		Warmup:  10,
		Clock:   NewFakeClock(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued != 100 {
		t.Fatalf("issued %d, want 100", res.Issued)
	}
	if got := tgt.calls.Load(); got != 100 {
		t.Fatalf("target saw %d calls, want 100 (each request exactly once)", got)
	}
	if res.WarmupDiscarded != 10 {
		t.Fatalf("warmup discarded %d, want 10", res.WarmupDiscarded)
	}
	if res.Measured != 90 {
		t.Fatalf("measured %d, want 90", res.Measured)
	}
	if res.Overall.Count() != 90 {
		t.Fatalf("overall histogram holds %d samples, want 90", res.Overall.Count())
	}
}

// Tier accounting: errors are counted but excluded from Measured,
// the Overall histogram, and hit ratios; per-tier counts and the
// aggregate hit ratio follow the fake's tier function.
func TestTierAndErrorAccounting(t *testing.T) {
	tgt := &fakeTarget{tierOf: func(i int) Tier {
		switch i % 4 {
		case 0:
			return TierOrigin
		case 1:
			return TierProxy
		case 2:
			return TierClientCache
		default:
			return TierError
		}
	}}
	reg := obs.NewRegistry("test")
	res, err := Run(context.Background(), testSchedule(200), tgt, Options{
		Mode:    ClosedLoop,
		Workers: 2,
		Clock:   NewFakeClock(time.Unix(0, 0)),
		Obs:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 50 || res.Measured != 150 {
		t.Fatalf("errors/measured = %d/%d, want 50/150", res.Errors, res.Measured)
	}
	if res.Tiers[TierOrigin] != 50 || res.Tiers[TierProxy] != 50 || res.Tiers[TierClientCache] != 50 {
		t.Fatalf("tier counts %v", res.Tiers)
	}
	if res.Overall.Count() != 150 {
		t.Fatalf("overall histogram %d samples, want 150 (errors excluded)", res.Overall.Count())
	}
	want := 1 - float64(res.Tiers[TierOrigin])/float64(res.Measured)
	if got := res.AggregateHitRatio(); got != want {
		t.Fatalf("aggregate hit ratio %.4f, want %.4f", got, want)
	}
	// Counters streamed into the registry during the run.
	vals := map[string]float64{}
	for _, m := range reg.Snapshot() {
		vals[m.Kind+":"+m.Name] = m.Value
	}
	if vals["counter:loadgen.issued"] != 200 {
		t.Fatalf("loadgen.issued = %v", vals["counter:loadgen.issued"])
	}
	if vals["counter:loadgen.serves.origin"] != 50 {
		t.Fatalf("loadgen.serves.origin = %v", vals["counter:loadgen.serves.origin"])
	}
	// The latency distribution is a first-class registry histogram now;
	// Values() flattens it to the quantile keys reports consume.
	if _, ok := vals["histogram:loadgen.latency"]; !ok {
		t.Fatal("loadgen.latency histogram not registered")
	}
	flat := reg.Values()
	if _, ok := flat["loadgen.latency.p99"]; !ok {
		t.Fatal("latency quantiles not in Values()")
	}
	if flat["loadgen.latency.count"] != 150 {
		t.Fatalf("loadgen.latency.count = %v, want 150", flat["loadgen.latency.count"])
	}
}

func TestRunValidation(t *testing.T) {
	tgt := &fakeTarget{}
	if _, err := Run(context.Background(), nil, tgt, Options{}); err == nil {
		t.Fatal("nil schedule accepted")
	}
	if _, err := Run(context.Background(), testSchedule(1), nil, Options{}); err == nil {
		t.Fatal("nil target accepted")
	}
	if _, err := Run(context.Background(), testSchedule(1), tgt, Options{Mode: OpenLoop}); err == nil {
		t.Fatal("open loop without arrival accepted")
	}
	if _, err := Run(context.Background(), testSchedule(1), tgt, Options{Warmup: -1}); err == nil {
		t.Fatal("negative warmup accepted")
	}
}

// A cancelled context stops issuing immediately.
func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, testSchedule(100), &fakeTarget{}, Options{
		Mode:    OpenLoop,
		Arrival: constantGap(time.Millisecond),
		Clock:   NewFakeClock(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued != 0 {
		t.Fatalf("issued %d after pre-cancelled context", res.Issued)
	}
}
