// Package obs provides the simulator's run-scoped observability: cheap
// atomic counters, gauges, and timers collected into named Registry
// instances, plus run manifests (manifest.go), progress/ETA tracking
// (progress.go), and the per-command Session that wires them, the span
// tracer and the profiles to a command's flags (session.go).
//
// Instrumentation is opt-in and free when disabled: every method is a
// no-op on a nil receiver, so code holds plain *Counter / *Gauge /
// *Timer fields obtained from a possibly-nil *Registry and calls them
// unconditionally.  The disabled path performs no allocation and no
// atomic operation (asserted in obs_test.go), which is what lets the
// hot replay loop stay instrumented without a measurable tax.
//
// Metric naming convention: dot-separated lowercase paths, with the
// owning layer first — "sim.serves.local_proxy", "core.sweep.job",
// "p2p.lookups".  METRICS.md documents every name the system emits.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.  The zero
// value is ready to use; a nil *Counter ignores all operations.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n may be any sign; counters are conventionally
// monotonic but this is not enforced).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 value that Set overwrites.  A nil *Gauge
// ignores all operations.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Timer accumulates durations: an observation count and total elapsed
// nanoseconds.  A nil *Timer ignores all operations.
type Timer struct {
	count atomic.Int64
	nanos atomic.Int64
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	if t != nil {
		t.count.Add(1)
		t.nanos.Add(int64(d))
	}
}

// noopStop avoids allocating a closure on the disabled path.
func noopStop() {}

// Start begins one timed section and returns the function that ends
// it.  On a nil timer the returned function is a shared no-op.
func (t *Timer) Start() (stop func()) {
	if t == nil {
		return noopStop
	}
	start := time.Now()
	return func() { t.Observe(time.Since(start)) }
}

// Count returns the number of observations.
func (t *Timer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.count.Load()
}

// Total returns the accumulated duration.
func (t *Timer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.nanos.Load())
}

// Mean returns the average observation (0 with no observations).
func (t *Timer) Mean() time.Duration {
	n := t.Count()
	if n == 0 {
		return 0
	}
	return t.Total() / time.Duration(n)
}

// Registry is one run's named metric set.  Metrics are created on
// first use and live for the run; all accessors are safe for
// concurrent use.  A nil *Registry is the disabled registry: every
// accessor returns nil, and the nil metric handles ignore all
// operations, so callers never branch on enablement.
type Registry struct {
	name string

	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	timers     map[string]*Timer
	histograms map[string]*Histogram
}

// NewRegistry creates an enabled registry.  The name scopes the run
// ("webcachesim", "fig-2a", ...) and is echoed in manifests.
func NewRegistry(name string) *Registry {
	return &Registry{
		name:       name,
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		timers:     make(map[string]*Timer),
		histograms: make(map[string]*Histogram),
	}
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// Name returns the registry's run scope ("" when disabled).
func (r *Registry) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// Counter returns the named counter, creating it on first use.
// Returns nil (the no-op counter) on a disabled registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns the named timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Histogram returns the named latency histogram, creating it on first
// use.  Returns nil (the no-op histogram) on a disabled registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Metric is one named observation in a registry snapshot.
type Metric struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"` // "counter", "gauge", "timer", or "histogram"
	Value float64 `json:"value"`
	// Count is the observation count for timers and histograms (Value
	// is then the total in seconds); zero otherwise.
	Count int64 `json:"count,omitempty"`
}

// Snapshot returns every metric, sorted by name.  Timers and
// histograms report their total in seconds plus the observation count.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.timers)+len(r.histograms))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Kind: "counter", Value: float64(c.Value())})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Kind: "gauge", Value: g.Value()})
	}
	for name, t := range r.timers {
		out = append(out, Metric{Name: name, Kind: "timer", Value: t.Total().Seconds(), Count: t.Count()})
	}
	for name, h := range r.histograms {
		out = append(out, Metric{Name: name, Kind: "histogram", Value: h.Sum().Seconds(), Count: h.Count()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// histSnapshot returns the histograms under the registry lock, for the
// flattening and exposition paths that need quantiles (which Snapshot's
// total/count pair cannot carry).
func (r *Registry) histSnapshot() map[string]*Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*Histogram, len(r.histograms))
	for name, h := range r.histograms {
		out[name] = h
	}
	return out
}

// Values flattens the snapshot into a name -> value map for manifest
// embedding.  Timers contribute two entries: "<name>.seconds" and
// "<name>.count".  Histograms contribute their quantile summary in
// seconds: "<name>.count", "<name>.mean", "<name>.p50" ... "<name>.max".
func (r *Registry) Values() map[string]float64 {
	snap := r.Snapshot()
	if snap == nil {
		return nil
	}
	out := make(map[string]float64, len(snap))
	for _, m := range snap {
		if m.Kind == "timer" {
			out[m.Name+".seconds"] = m.Value
			out[m.Name+".count"] = float64(m.Count)
			continue
		}
		if m.Kind == "histogram" {
			continue // flattened below, with quantiles
		}
		out[m.Name] = m.Value
	}
	for name, h := range r.histSnapshot() {
		s := h.Summary()
		out[name+".count"] = float64(s.Count)
		out[name+".mean"] = s.Mean.Seconds()
		out[name+".p50"] = s.P50.Seconds()
		out[name+".p90"] = s.P90.Seconds()
		out[name+".p99"] = s.P99.Seconds()
		out[name+".p999"] = s.P999.Seconds()
		out[name+".max"] = s.Max.Seconds()
	}
	return out
}

// String renders the snapshot as one aligned line per metric, for
// -metrics style dumps.
func (r *Registry) String() string {
	snap := r.Snapshot()
	if len(snap) == 0 {
		return ""
	}
	var b strings.Builder
	for _, m := range snap {
		switch m.Kind {
		case "timer", "histogram":
			fmt.Fprintf(&b, "%-40s %12.6fs n=%d\n", m.Name, m.Value, m.Count)
		case "counter":
			fmt.Fprintf(&b, "%-40s %12d\n", m.Name, int64(m.Value))
		default:
			fmt.Fprintf(&b, "%-40s %12.4f\n", m.Name, m.Value)
		}
	}
	return b.String()
}
