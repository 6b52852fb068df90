package slo

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"webcache/internal/obs"
)

// fakeClock steps a tracker's time by hand.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

func testTracker(reg *obs.Registry) (*Tracker, *fakeClock) {
	tr := NewTracker(reg, []Class{
		{Name: "interactive", Latency: 50 * time.Millisecond, Availability: 0.99, Window: time.Minute},
		{Name: "batch", Latency: 500 * time.Millisecond, Availability: 0.9, Window: time.Minute},
	})
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	tr.now = clk.now
	return tr, clk
}

func TestParseClasses(t *testing.T) {
	cs, err := ParseClasses("interactive:50ms:0.999:1m, batch:500ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 || cs[0].Latency != 50*time.Millisecond || cs[0].Availability != 0.999 ||
		cs[0].Window != time.Minute || cs[1].Name != "batch" || cs[1].Availability != 0.999 {
		t.Fatalf("parsed %+v", cs)
	}
	for _, bad := range []string{
		":50ms", "x:zzz", "x:50ms:1.5", "x:50ms:0.9:zz",
		"x:1ms:0.9:30ns",      // a 60-bucket ring would slice it into 0ns buckets
		"x:1ms:0.9:0s",        // likewise
		"x:1ms:0.9:1m:extra",  // a fifth field is not silently dropped
		"x:1ms, y:2ms, x:3ms", // a repeated class
	} {
		if _, err := ParseClasses(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestBurnRate(t *testing.T) {
	if got := BurnRate(0, 0, 0.999); got != 0 {
		t.Fatalf("no traffic burns %v", got)
	}
	// 1% bad against a 0.1% budget = 10x burn.
	if got := BurnRate(1, 100, 0.999); got < 9.99 || got > 10.01 {
		t.Fatalf("burn = %v, want ~10", got)
	}
	// Burning exactly the budget = 1.0.
	if got := BurnRate(1, 1000, 0.999); got < 0.999 || got > 1.001 {
		t.Fatalf("burn = %v, want ~1", got)
	}
}

func TestTrackerWindowedBurn(t *testing.T) {
	tr, clk := testTracker(nil)
	// 1 minute window, 1s buckets, 5s fast window.  99 good + 1 bad at
	// 1% budget = burn 1.0 on both windows.
	for i := 0; i < 99; i++ {
		tr.Observe("interactive", time.Millisecond, false)
	}
	tr.Observe("interactive", time.Millisecond, true)
	r := tr.Report()[0]
	if r.FastBurn < 0.99 || r.FastBurn > 1.01 || r.SlowBurn < 0.99 || r.SlowBurn > 1.01 {
		t.Fatalf("burns = %v / %v, want ~1", r.FastBurn, r.SlowBurn)
	}
	if r.Requests != 100 || r.Bad != 1 || r.Failed != 1 {
		t.Fatalf("report %+v", r)
	}

	// Past the fast window the fast burn decays while the slow window
	// still remembers.
	clk.advance(10 * time.Second)
	for i := 0; i < 10; i++ {
		tr.Observe("interactive", time.Millisecond, false)
	}
	r = tr.Report()[0]
	if r.FastBurn != 0 {
		t.Fatalf("fast burn after decay = %v, want 0", r.FastBurn)
	}
	if r.SlowBurn == 0 {
		t.Fatal("slow burn forgot the bad minute")
	}

	// Past the slow window everything is forgiven.
	clk.advance(2 * time.Minute)
	tr.Observe("interactive", time.Millisecond, false)
	r = tr.Report()[0]
	if r.FastBurn != 0 || r.SlowBurn != 0 {
		t.Fatalf("after slow window: %+v", r)
	}
}

func TestTrackerLatencyBreachSpendsBudget(t *testing.T) {
	tr, _ := testTracker(nil)
	// A slow success breaches the 50ms objective.
	tr.Observe("interactive", 200*time.Millisecond, false)
	r := tr.Report()[0]
	if r.Bad != 1 || r.Failed != 0 {
		t.Fatalf("latency breach not counted: %+v", r)
	}
	// The same latency is fine for batch (500ms objective).
	tr.Observe("batch", 200*time.Millisecond, false)
	if r := tr.Report()[1]; r.Bad != 0 {
		t.Fatalf("batch breached: %+v", r)
	}
}

func TestTrackerPageEvents(t *testing.T) {
	reg := obs.NewRegistry("slo-test")
	tr, clk := testTracker(reg)
	var events bytes.Buffer
	tr.SetEvents(obs.NewEventLog("test", &events))
	count := func(typ string) int { return strings.Count(events.String(), `"type":"`+typ+`"`) }

	// All-bad traffic: burn 1/0.01 = 100x >= both thresholds.
	for i := 0; i < 20; i++ {
		tr.Observe("interactive", time.Millisecond, true)
	}
	tr.Report()
	if count("slo.page") != 1 || count("slo.ticket") != 1 {
		t.Fatalf("events = %q", events.String())
	}
	if reg.Gauge("slo.interactive.paging").Value() != 1 {
		t.Fatal("paging gauge not set")
	}

	// Recovery clears the page (fast window empties first).
	clk.advance(10 * time.Second)
	for i := 0; i < 2000; i++ {
		tr.Observe("interactive", time.Millisecond, false)
	}
	tr.Report()
	if count("slo.page.clear") != 1 {
		t.Fatalf("no page clear: %q", events.String())
	}
}

func TestTrackerUnknownClassFolds(t *testing.T) {
	tr, _ := testTracker(nil)
	tr.Observe("no-such-class", time.Millisecond, false)
	tr.Observe("", time.Millisecond, false)
	if r := tr.Report()[0]; r.Requests != 2 {
		t.Fatalf("unknown class not folded into first: %+v", r)
	}
}

func TestTrackerNilSafe(t *testing.T) {
	var tr *Tracker
	tr.Observe("x", time.Millisecond, false)
	tr.SetEvents(nil)
	if tr.Report() != nil {
		t.Fatal("nil tracker reported something")
	}
	// A tracker without a registry still accounts.
	tr2 := NewTracker(nil, []Class{{Name: "only"}})
	tr2.Observe("only", time.Millisecond, false)
	if r := tr2.Report()[0]; r.Requests != 1 {
		t.Fatalf("registry-less tracker: %+v", r)
	}
	// A window shorter than the ring, which ParseClass refuses, still
	// accounts instead of dividing by zero.
	tr3 := NewTracker(nil, []Class{{Name: "tiny", Window: 30 * time.Nanosecond}})
	tr3.Observe("tiny", time.Millisecond, false)
	if r := tr3.Report()[0]; r.Requests != 1 {
		t.Fatalf("30ns window: %+v", r)
	}
}

// TestTrackerConcurrent has request handlers observe while /metrics
// scrapes report, as a proxy does; under -race it holds the ledger's
// locking, and the lifetime totals count every request once.
func TestTrackerConcurrent(t *testing.T) {
	reg := obs.NewRegistry("slo-race")
	tr, _ := testTracker(reg)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Observe("interactive", time.Duration(i%100)*time.Millisecond, i%50 == 0)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			tr.Report()
		}
	}()
	wg.Wait()
	<-done
	r := tr.Report()[0]
	if r.Requests != 2000 {
		t.Fatalf("requests = %d, want 2000", r.Requests)
	}
	if got := reg.Gauge("slo.interactive.good").Value() + reg.Gauge("slo.interactive.bad").Value(); got != 2000 {
		t.Fatalf("good+bad gauges = %v, want 2000", got)
	}
}
