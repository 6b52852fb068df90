package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Request-level span tracing.  A Tracer records one SpanTrace per
// sampled request; each trace carries child spans for every hop the
// request took through the decision path (client-cache probe,
// directory lookup, P2P fetch, proxy hit, origin fetch), tagged with
// the netmodel latency component (Ts/Tc/Tl/Tp2p) the hop is charged
// under.  The same contract as the rest of obs applies: a nil *Tracer
// (and the nil *SpanTrace / *SpanHandle it hands out) ignores every
// call at zero cost — no allocation, no clock read — so the replay
// loop and the HTTP handlers stay instrumented unconditionally
// (asserted in trace_test.go).
//
// Two clocks:
//
//   - ClockVirtual: the caller supplies start offsets and durations in
//     the simulator's normalized latency units (Tl = 1).  Span and
//     Finish take explicit durations; spans are laid out end-to-end.
//   - ClockWall: real time.  StartSpan/End measure wall durations in
//     seconds relative to the tracer's epoch, so traces from separate
//     daemons sharing an epoch line up.
//
// Sampling is head-based: StartTrace keeps every SampleEvery-th root
// request (and drops the rest before any work happens), while
// StartTraceID — the propagated form used when an upstream hop already
// decided to trace, carried across processes in the
// httpcache.TraceHeader — always records, so a sampled request yields
// spans at every hop it touches.

// TraceClock selects the time base a Tracer records in.
type TraceClock int

const (
	// ClockVirtual uses caller-supplied offsets/durations in the
	// simulator's normalized latency units.
	ClockVirtual TraceClock = iota
	// ClockWall uses real elapsed time, in seconds since the tracer's
	// epoch.
	ClockWall
)

// TracerOptions configures NewTracer.
type TracerOptions struct {
	// Origin prefixes generated trace IDs ("sim", "proxy:8081", ...).
	Origin string
	// SampleEvery keeps 1 in N root traces; 0 or 1 keeps all, and
	// SampleNever (any negative value) disables root sampling entirely:
	// the tracer records only joined traces (StartTraceID), the
	// join-only collector a bench hangs off its daemons so every
	// retained hop belongs to a driver-sampled request.
	SampleEvery int
	// Limit caps retained traces (head-based: the first Limit sampled
	// traces are kept, later ones counted as dropped).  <= 0 means the
	// default of 10000.
	Limit int
	// Clock selects virtual or wall time.
	Clock TraceClock
}

// DefaultTraceLimit is the retained-trace cap when TracerOptions.Limit
// is unset.
const DefaultTraceLimit = 10000

// SampleNever, as TracerOptions.SampleEvery, makes a join-only tracer.
const SampleNever = -1

// Tracer collects sampled request traces.  All methods are safe for
// concurrent use; a nil *Tracer is the disabled tracer.
type Tracer struct {
	opts  TracerOptions
	epoch time.Time

	seq     atomic.Int64 // root-trace sampling counter
	ids     atomic.Int64 // trace-id generator
	dropped atomic.Int64

	mu     sync.Mutex
	traces []*SpanTrace
}

// NewTracer creates an enabled tracer.
func NewTracer(opts TracerOptions) *Tracer {
	if opts.SampleEvery < 0 {
		opts.SampleEvery = SampleNever
	} else if opts.SampleEvery < 1 {
		opts.SampleEvery = 1
	}
	if opts.Limit <= 0 {
		opts.Limit = DefaultTraceLimit
	}
	if opts.Origin == "" {
		opts.Origin = "trace"
	}
	return &Tracer{opts: opts, epoch: time.Now()}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Span is one hop in a trace.  Start/Dur are in the tracer's time base
// (virtual units, or seconds for ClockWall).
type Span struct {
	Name      string  `json:"name"`
	Component string  `json:"component,omitempty"` // netmodel component: Ts, Tc, Tl, Tp2p
	Start     float64 `json:"start"`
	Dur       float64 `json:"dur"`
	// Wasted marks latency charged to a miss on the decision path — a
	// Bloom false-positive probe, a stale digest probe — rather than
	// to the serving hop itself.
	Wasted bool `json:"wasted,omitempty"`
}

// SpanTrace is one sampled request's trace.  Methods are safe for
// concurrent use; a nil *SpanTrace ignores everything.
type SpanTrace struct {
	ID       string  `json:"id"`
	Name     string  `json:"name"`
	Tier     string  `json:"tier,omitempty"` // serving tier, set by Finish
	Start    float64 `json:"start"`
	Dur      float64 `json:"dur"`
	Root     bool    `json:"root"`
	Finished bool    `json:"finished"`
	Spans    []Span  `json:"spans,omitempty"`

	// live holds the recording state (lock, cursor, clock).  It is a
	// pointer so SpanTrace snapshot values (live == nil) copy freely;
	// only tracer-created traces record through it.
	live *traceState
}

// traceState is the mutable recording side of an in-flight SpanTrace.
type traceState struct {
	tracer    *Tracer
	mu        sync.Mutex
	cursor    float64 // next virtual span's start offset
	wallStart time.Time
}

// add appends a trace if the retention limit allows it.
func (t *Tracer) add(st *SpanTrace) *SpanTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.traces) >= t.opts.Limit {
		t.dropped.Add(1)
		return nil
	}
	t.traces = append(t.traces, st)
	return st
}

// StartTrace begins a new root trace for one request, or returns nil
// when the request is not sampled (or the tracer is disabled or full).
// start is the trace's start offset in virtual units; ignored under
// ClockWall, where the epoch-relative wall offset is recorded instead.
func (t *Tracer) StartTrace(name string, start float64) *SpanTrace {
	if t == nil {
		return nil
	}
	if t.opts.SampleEvery == SampleNever {
		return nil
	}
	if n := t.seq.Add(1); t.opts.SampleEvery > 1 && (n-1)%int64(t.opts.SampleEvery) != 0 {
		return nil
	}
	st := &SpanTrace{
		ID:    fmt.Sprintf("%s-%d", t.opts.Origin, t.ids.Add(1)),
		Name:  name,
		Start: start,
		Root:  true,
		live:  &traceState{tracer: t},
	}
	if t.opts.Clock == ClockWall {
		st.live.wallStart = time.Now()
		st.Start = st.live.wallStart.Sub(t.epoch).Seconds()
	}
	return t.add(st)
}

// StartTraceID joins a trace an upstream hop already sampled: the ID
// is the propagated one and no sampling decision is made (the edge
// made it).  Returns nil only when disabled or full.
func (t *Tracer) StartTraceID(id, name string) *SpanTrace {
	if t == nil || id == "" {
		return nil
	}
	st := &SpanTrace{
		ID:   id,
		Name: name,
		Root: false,
		live: &traceState{tracer: t},
	}
	if t.opts.Clock == ClockWall {
		st.live.wallStart = time.Now()
		st.Start = st.live.wallStart.Sub(t.epoch).Seconds()
	}
	return t.add(st)
}

// TraceID returns the trace's propagatable ID ("" on nil, so callers
// set headers unconditionally).
func (st *SpanTrace) TraceID() string {
	if st == nil {
		return ""
	}
	return st.ID
}

// Span appends a virtual-clock span of the given duration at the
// current cursor and advances the cursor, laying hops end-to-end.
func (st *SpanTrace) Span(name, component string, dur float64) {
	if st == nil {
		return
	}
	st.live.mu.Lock()
	st.Spans = append(st.Spans, Span{Name: name, Component: component, Start: st.Start + st.live.cursor, Dur: dur})
	st.live.cursor += dur
	st.live.mu.Unlock()
}

// WastedSpan is Span with the wasted-work flag: latency charged to a
// false positive or stale probe on the decision path.
func (st *SpanTrace) WastedSpan(name, component string, dur float64) {
	if st == nil {
		return
	}
	st.live.mu.Lock()
	st.Spans = append(st.Spans, Span{Name: name, Component: component, Start: st.Start + st.live.cursor, Dur: dur, Wasted: true})
	st.live.cursor += dur
	st.live.mu.Unlock()
}

// Finish completes a virtual-clock trace: the serving tier and the
// total charged latency.
func (st *SpanTrace) Finish(tier string, total float64) {
	if st == nil {
		return
	}
	st.live.mu.Lock()
	st.Tier = tier
	st.Dur = total
	st.Finished = true
	st.live.mu.Unlock()
}

// SpanHandle is an open wall-clock span; End (or EndWasted) closes it.
// A nil handle ignores both.
type SpanHandle struct {
	st        *SpanTrace
	name      string
	component string
	start     time.Time
}

// StartSpan opens a wall-clock span.
func (st *SpanTrace) StartSpan(name, component string) *SpanHandle {
	if st == nil {
		return nil
	}
	return &SpanHandle{st: st, name: name, component: component, start: time.Now()}
}

func (h *SpanHandle) end(wasted bool) {
	if h == nil {
		return
	}
	st := h.st
	start := h.start.Sub(st.live.tracer.epoch).Seconds()
	dur := time.Since(h.start).Seconds()
	st.live.mu.Lock()
	st.Spans = append(st.Spans, Span{Name: h.name, Component: h.component, Start: start, Dur: dur, Wasted: wasted})
	st.live.mu.Unlock()
}

// End closes the span.
func (h *SpanHandle) End() { h.end(false) }

// EndWasted closes the span and marks it wasted work (a probe that
// did not serve the request).
func (h *SpanHandle) EndWasted() { h.end(true) }

// FinishWall completes a wall-clock trace with the serving tier; the
// duration is wall time since the trace started.
func (st *SpanTrace) FinishWall(tier string) {
	if st == nil {
		return
	}
	d := time.Since(st.live.wallStart).Seconds()
	st.live.mu.Lock()
	st.Tier = tier
	st.Dur = d
	st.Finished = true
	st.live.mu.Unlock()
}

// snapshot copies the trace under its lock; the copy has no recording
// state (live == nil) and is a plain value.
func (st *SpanTrace) snapshot() SpanTrace {
	st.live.mu.Lock()
	defer st.live.mu.Unlock()
	cp := SpanTrace{
		ID: st.ID, Name: st.Name, Tier: st.Tier,
		Start: st.Start, Dur: st.Dur, Root: st.Root,
		Finished: st.Finished,
	}
	cp.Spans = append(cp.Spans, st.Spans...)
	return cp
}

// snapshots copies the retained trace list and each trace.
func (t *Tracer) snapshots() []SpanTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	list := append([]*SpanTrace(nil), t.traces...)
	t.mu.Unlock()
	out := make([]SpanTrace, len(list))
	for i, st := range list {
		out[i] = st.snapshot()
	}
	return out
}

// Snapshots returns a deep copy of every retained trace (exports and
// tests; nil tracer returns nil).
func (t *Tracer) Snapshots() []SpanTrace { return t.snapshots() }

// Len returns the number of retained traces.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.traces)
}

// PublishMetrics folds the tracer's totals into a registry under the
// trace.* namespace.
func (t *Tracer) PublishMetrics(reg *Registry) {
	if t == nil || reg == nil {
		return
	}
	snaps := t.snapshots()
	var roots, joined, spans int64
	for i := range snaps {
		if snaps[i].Root {
			roots++
		} else {
			joined++
		}
		spans += int64(len(snaps[i].Spans))
	}
	reg.Counter("trace.sampled").Add(roots)
	reg.Counter("trace.joined").Add(joined)
	reg.Counter("trace.spans").Add(spans)
	reg.Counter("trace.dropped").Add(t.dropped.Load())
}

// chromeEvent is one Chrome trace-event ("Trace Event Format",
// Perfetto-loadable) complete event.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeScale converts the tracer's time base to Chrome's
// microseconds: wall seconds scale by 1e6; virtual units also scale by
// 1e6, so one normalized latency unit (Tl = 1) renders as one second
// on the Perfetto timeline.
const chromeScale = 1e6

// WriteChromeTraces writes the given traces as one Chrome trace-event
// JSON document ({"traceEvents": [...]}).  Each trace gets its own tid
// track: one enclosing event for the request plus one event per span,
// with the component tag as the category and wasted/tier/trace-id in
// args.  This is the merge point for multi-collector runs: a
// bench passes the driver's sampled roots together with the daemons'
// joined hop traces, and Perfetto shows each as its own track.  Traces
// are emitted grouped by trace id (roots first), so a request's hops
// land on adjacent tracks.
func WriteChromeTraces(w io.Writer, traces []SpanTrace) error {
	traces = groupByTraceID(traces)
	events := []chromeEvent{}
	for i, st := range traces {
		tid := i + 1
		args := map[string]any{"trace": st.ID}
		if st.Tier != "" {
			args["tier"] = st.Tier
		}
		events = append(events, chromeEvent{
			Name: st.Name, Cat: "request", Ph: "X",
			Ts: st.Start * chromeScale, Dur: st.Dur * chromeScale,
			Pid: 1, Tid: tid, Args: args,
		})
		for _, sp := range st.Spans {
			cat := sp.Component
			if cat == "" {
				cat = "span"
			}
			a := map[string]any{"trace": st.ID}
			if sp.Component != "" {
				a["component"] = sp.Component
			}
			if sp.Wasted {
				a["wasted"] = true
			}
			events = append(events, chromeEvent{
				Name: sp.Name, Cat: cat, Ph: "X",
				Ts: sp.Start * chromeScale, Dur: sp.Dur * chromeScale,
				Pid: 1, Tid: tid, Args: a,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events})
}

// groupByTraceID stably sorts traces so records sharing an id are
// adjacent, the root hop leading.  Ordering across ids preserves
// first-appearance order (collection order), not lexicographic id
// order.
func groupByTraceID(traces []SpanTrace) []SpanTrace {
	order := make(map[string]int, len(traces))
	for _, st := range traces {
		if _, ok := order[st.ID]; !ok {
			order[st.ID] = len(order)
		}
	}
	out := make([]SpanTrace, len(traces))
	copy(out, traces)
	sort.SliceStable(out, func(i, j int) bool {
		oi, oj := order[out[i].ID], order[out[j].ID]
		if oi != oj {
			return oi < oj
		}
		return out[i].Root && !out[j].Root
	})
	return out
}

// ValidateChromeTrace checks that data is well-formed Chrome
// trace-event JSON as Perfetto's legacy loader expects it: a
// traceEvents array of complete events with name/ph/ts/dur/pid/tid.
func ValidateChromeTrace(data []byte) error {
	var doc struct {
		TraceEvents []struct {
			Name *string  `json:"name"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			Pid  *int     `json:"pid"`
			Tid  *int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	if doc.TraceEvents == nil {
		return fmt.Errorf("chrome trace: missing traceEvents array")
	}
	for i, ev := range doc.TraceEvents {
		switch {
		case ev.Name == nil || *ev.Name == "":
			return fmt.Errorf("chrome trace: event %d: missing name", i)
		case ev.Ph != "X":
			return fmt.Errorf("chrome trace: event %d: phase %q (want complete event \"X\")", i, ev.Ph)
		case ev.Ts == nil || math.IsNaN(*ev.Ts) || math.IsInf(*ev.Ts, 0):
			return fmt.Errorf("chrome trace: event %d: bad ts", i)
		case ev.Dur == nil || *ev.Dur < 0 || math.IsNaN(*ev.Dur) || math.IsInf(*ev.Dur, 0):
			return fmt.Errorf("chrome trace: event %d: bad dur", i)
		case ev.Pid == nil || ev.Tid == nil:
			return fmt.Errorf("chrome trace: event %d: missing pid/tid", i)
		}
	}
	return nil
}

// TierDecomp is one serving tier's row in a latency decomposition.
type TierDecomp struct {
	Tier     string  `json:"tier"`
	Requests int     `json:"requests"`
	Total    float64 `json:"total"`  // summed trace durations
	Wasted   float64 `json:"wasted"` // summed wasted-span durations
	// SpanTotal sums every span duration (wasted included); when spans
	// fully account the trace it equals Total.
	SpanTotal  float64            `json:"span_total"`
	Components map[string]float64 `json:"components,omitempty"` // per netmodel component
}

// Mean is the mean end-to-end latency for the tier.
func (d *TierDecomp) Mean() float64 {
	if d.Requests == 0 {
		return 0
	}
	return d.Total / float64(d.Requests)
}

// MeanServed is the mean latency excluding wasted probe work — the
// quantity the netmodel analytic per-tier latency predicts.
func (d *TierDecomp) MeanServed() float64 {
	if d.Requests == 0 {
		return 0
	}
	return (d.Total - d.Wasted) / float64(d.Requests)
}

// Decomposition is the per-tier latency breakdown folded from sampled
// spans.
type Decomposition struct {
	Tiers []*TierDecomp `json:"tiers"` // sorted by tier name
}

// Tier returns the named row (nil if absent).
func (d *Decomposition) Tier(name string) *TierDecomp {
	if d == nil {
		return nil
	}
	for _, td := range d.Tiers {
		if td.Tier == name {
			return td
		}
	}
	return nil
}

// Decompose folds every finished root trace into a per-tier latency
// decomposition: request counts, total/mean latency, wasted probe
// latency, and per-component (Ts/Tc/Tl/Tp2p) sums.
func (t *Tracer) Decompose() *Decomposition {
	rows := map[string]*TierDecomp{}
	for _, st := range t.snapshots() {
		if !st.Root || !st.Finished || st.Tier == "" {
			continue
		}
		td := rows[st.Tier]
		if td == nil {
			td = &TierDecomp{Tier: st.Tier, Components: map[string]float64{}}
			rows[st.Tier] = td
		}
		td.Requests++
		td.Total += st.Dur
		for _, sp := range st.Spans {
			td.SpanTotal += sp.Dur
			if sp.Wasted {
				td.Wasted += sp.Dur
			}
			if sp.Component != "" {
				td.Components[sp.Component] += sp.Dur
			}
		}
	}
	d := &Decomposition{}
	for _, td := range rows {
		d.Tiers = append(d.Tiers, td)
	}
	sort.Slice(d.Tiers, func(i, j int) bool { return d.Tiers[i].Tier < d.Tiers[j].Tier })
	return d
}

// Table renders the decomposition as an aligned text table.
func (d *Decomposition) Table() string {
	if d == nil || len(d.Tiers) == 0 {
		return ""
	}
	comps := map[string]bool{}
	for _, td := range d.Tiers {
		for c := range td.Components {
			comps[c] = true
		}
	}
	order := make([]string, 0, len(comps))
	for c := range comps {
		order = append(order, c)
	}
	sort.Strings(order)

	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %9s %12s %12s %12s", "tier", "requests", "mean", "served", "wasted")
	for _, c := range order {
		fmt.Fprintf(&b, " %12s", c)
	}
	b.WriteByte('\n')
	for _, td := range d.Tiers {
		fmt.Fprintf(&b, "%-14s %9d %12.4f %12.4f %12.4f",
			td.Tier, td.Requests, td.Mean(), td.MeanServed(), td.Wasted)
		for _, c := range order {
			fmt.Fprintf(&b, " %12.4f", td.Components[c])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
