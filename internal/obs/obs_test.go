package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCounterConcurrent hammers one counter from many goroutines;
// run under -race (see the Makefile's race target) to prove the
// instrumentation is race-clean.
func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry("test")
	c := reg.Counter("hits")
	const workers, perWorker = 16, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

// TestGaugeConcurrent: concurrent Sets never tear; the gauge holds
// one of the values written.
func TestGaugeConcurrent(t *testing.T) {
	g := NewRegistry("test").Gauge("g")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Set(float64(w*1000 + i))
			}
		}()
	}
	wg.Wait()
	if v := g.Value(); v < 999 || v > 7999 || v != float64(int(v)/1000*1000+999) {
		t.Fatalf("gauge = %g, want some worker's last value", v)
	}
}

// TestDisabledZeroAlloc asserts the acceptance criterion that the
// disabled path is free: metric lookup and every operation on the
// resulting nil handles allocate nothing.
func TestDisabledZeroAlloc(t *testing.T) {
	var reg *Registry // disabled
	c := reg.Counter("x")
	g := reg.Gauge("y")
	tm := reg.Timer("z")
	allocs := testing.AllocsPerRun(1000, func() {
		reg.Counter("sim.requests").Inc()
		c.Add(3)
		g.Set(1.5)
		tm.Observe(time.Second)
		tm.Start()()
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation allocated %.1f bytes/op, want 0", allocs)
	}
	if c.Value() != 0 || g.Value() != 0 || tm.Count() != 0 {
		t.Fatal("nil handles must observe nothing")
	}
	if reg.Enabled() {
		t.Fatal("nil registry must report disabled")
	}
	if reg.Snapshot() != nil || reg.Values() != nil {
		t.Fatal("nil registry must snapshot to nil")
	}
}

func TestTimer(t *testing.T) {
	reg := NewRegistry("test")
	tm := reg.Timer("phase")
	tm.Observe(2 * time.Second)
	tm.Observe(4 * time.Second)
	if tm.Count() != 2 {
		t.Fatalf("count = %d, want 2", tm.Count())
	}
	if tm.Total() != 6*time.Second {
		t.Fatalf("total = %v, want 6s", tm.Total())
	}
	if tm.Mean() != 3*time.Second {
		t.Fatalf("mean = %v, want 3s", tm.Mean())
	}
	stop := tm.Start()
	stop()
	if tm.Count() != 3 {
		t.Fatalf("count after Start/stop = %d, want 3", tm.Count())
	}
}

// TestSnapshotAndValues checks the snapshot ordering and the timer
// flattening convention manifests rely on.
func TestSnapshotAndValues(t *testing.T) {
	reg := NewRegistry("test")
	reg.Counter("b.count").Add(7)
	reg.Gauge("a.value").Set(1.25)
	reg.Timer("c.time").Observe(1500 * time.Millisecond)

	snap := reg.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d metrics, want 3", len(snap))
	}
	for i, want := range []string{"a.value", "b.count", "c.time"} {
		if snap[i].Name != want {
			t.Fatalf("snapshot[%d] = %q, want %q (sorted)", i, snap[i].Name, want)
		}
	}

	vals := reg.Values()
	if vals["b.count"] != 7 || vals["a.value"] != 1.25 {
		t.Fatalf("values = %v", vals)
	}
	if vals["c.time.seconds"] != 1.5 || vals["c.time.count"] != 1 {
		t.Fatalf("timer flattening wrong: %v", vals)
	}

	if s := reg.String(); !strings.Contains(s, "b.count") {
		t.Fatalf("String() missing metrics: %q", s)
	}
}

// The painter paints the count its callers pass: driven by 8 workers
// at once, as a sweep's are (run it under -race), every line it paints
// carries a count no lower than the one before, and the last reads the
// whole total.
func TestPainterConcurrentSteps(t *testing.T) {
	const workers, each = 8, 200
	var buf bytes.Buffer
	p := newPainter(&buf, "fig 2a")
	var done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				p.step(int(done.Add(1)), workers*each)
			}
		}()
	}
	wg.Wait()
	p.finish()
	out := buf.String()
	if !strings.HasSuffix(out, "\n") {
		t.Fatal("finish must end the line")
	}
	last := 0
	for _, line := range strings.Split(strings.TrimSpace(out), "\r") {
		var n, total int
		if _, err := fmt.Sscanf(strings.TrimSpace(line), "fig 2a: %d/%d", &n, &total); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if n < last || total != workers*each {
			t.Fatalf("painted %d/%d after %d", n, total, last)
		}
		last = n
	}
	if last != workers*each {
		t.Fatalf("last line reads %d, want %d", last, workers*each)
	}
}
