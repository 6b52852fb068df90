package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// The disabled tracer must cost nothing: no allocation and no clock
// read anywhere on the hot path.  This is the same contract the
// registry pins in TestDisabledZeroAlloc.
func TestTracerDisabledZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		st := tr.StartTrace("request", 1)
		st.Span("proxy.cache", "Tl", 1)
		st.WastedSpan("probe", "Tc", 0.1)
		h := st.StartSpan("peer", "Tc")
		h.End()
		h.EndWasted()
		_ = st.TraceID()
		st.Finish("server", 2)
		st.FinishWall("proxy")
		st2 := tr.StartTraceID("x-1", "hop")
		st2.Span("s", "", 1)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocated %v times per op", allocs)
	}
}

// BenchmarkDisabledTracer is the CI zero-alloc guard for the disabled
// hot path (run with -benchmem; allocs/op must report 0).
func BenchmarkDisabledTracer(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st := tr.StartTrace("request", float64(i))
		st.Span("proxy.cache", "Tl", 1)
		st.Finish("server", 2)
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(TracerOptions{Origin: "sim", SampleEvery: 3})
	kept := 0
	for i := 0; i < 9; i++ {
		if st := tr.StartTrace("request", float64(i)); st != nil {
			kept++
			st.Finish("server", 1)
		}
	}
	if kept != 3 || tr.Len() != 3 {
		t.Fatalf("SampleEvery=3 over 9 requests kept %d (Len %d), want 3", kept, tr.Len())
	}
	// Propagated joins are not re-sampled.
	if st := tr.StartTraceID("up-1", "hop"); st == nil {
		t.Fatal("StartTraceID was sampled away")
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d after join, want 4", tr.Len())
	}
}

func TestTracerLimit(t *testing.T) {
	tr := NewTracer(TracerOptions{Limit: 2})
	for i := 0; i < 5; i++ {
		tr.StartTrace("request", float64(i))
	}
	if tr.Len() != 2 {
		t.Fatalf("Len=%d, want 2", tr.Len())
	}
	reg := NewRegistry("t")
	tr.PublishMetrics(reg)
	if got := reg.Counter("trace.dropped").Value(); got != 3 {
		t.Fatalf("trace.dropped = %d, want 3", got)
	}
}

func TestVirtualSpansLayOut(t *testing.T) {
	tr := NewTracer(TracerOptions{Origin: "sim"})
	st := tr.StartTrace("request", 10)
	st.Span("proxy.cache", "Tl", 1)
	st.WastedSpan("peer.probe.stale", "Tc", 2)
	st.Span("origin.fetch", "Ts", 20)
	st.Finish("server", 23)

	if st.Spans[0].Start != 10 || st.Spans[1].Start != 11 || st.Spans[2].Start != 13 {
		t.Fatalf("span starts %v %v %v, want 10 11 13",
			st.Spans[0].Start, st.Spans[1].Start, st.Spans[2].Start)
	}
	d := tr.Decompose()
	row := d.Tier("server")
	if row == nil || row.Requests != 1 {
		t.Fatalf("decomposition missing server row: %+v", d)
	}
	if row.Total != 23 || row.Wasted != 2 || row.SpanTotal != 23 {
		t.Fatalf("row total/wasted/spantotal = %v/%v/%v, want 23/2/23", row.Total, row.Wasted, row.SpanTotal)
	}
	if got := row.MeanServed(); got != 21 {
		t.Fatalf("MeanServed = %v, want 21", got)
	}
	if row.Components["Ts"] != 20 || row.Components["Tl"] != 1 || row.Components["Tc"] != 2 {
		t.Fatalf("components = %v", row.Components)
	}
	if d.Table() == "" || !strings.Contains(d.Table(), "server") {
		t.Fatalf("Table() = %q", d.Table())
	}
}

func TestWallSpans(t *testing.T) {
	tr := NewTracer(TracerOptions{Origin: "proxy", Clock: ClockWall})
	st := tr.StartTrace("GET", 0)
	h := st.StartSpan("lan.fetch", "Tc")
	time.Sleep(time.Millisecond)
	h.End()
	st.FinishWall("peer-proxy")

	snap := st.snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Dur <= 0 {
		t.Fatalf("wall span not recorded: %+v", snap.Spans)
	}
	if snap.Dur < snap.Spans[0].Dur {
		t.Fatalf("trace dur %v < span dur %v", snap.Dur, snap.Spans[0].Dur)
	}
	if snap.Tier != "peer-proxy" || !snap.Finished {
		t.Fatalf("FinishWall did not close the trace: %+v", snap)
	}
}

// Concurrent span recording into a shared trace and concurrent trace
// starts must be race-free (this test is part of the race-enabled
// `make check` gate).
func TestConcurrentSpanRecording(t *testing.T) {
	tr := NewTracer(TracerOptions{Origin: "race", Clock: ClockWall, Limit: 100000})
	shared := tr.StartTrace("request", 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				shared.Span("hop", "Tc", 0.001)
				h := shared.StartSpan("wall", "Tp2p")
				h.End()
				st := tr.StartTrace("request", float64(i))
				st.Span("proxy.cache", "Tl", 1)
				st.Finish("proxy", 1)
				if j := tr.StartTraceID("peer-1", "hop"); j != nil {
					j.Span("peer.cache", "Tc", 1)
					j.FinishWall("peer-proxy")
				}
			}
		}(g)
	}
	// Exports may run while recording continues.
	var buf bytes.Buffer
	_ = WriteChromeTraces(&buf, tr.Snapshots())
	_ = tr.Decompose()
	wg.Wait()
	shared.Finish("proxy", 1)
	if tr.Len() == 0 {
		t.Fatal("no traces recorded")
	}
}

func TestWriteChromeValidates(t *testing.T) {
	tr := NewTracer(TracerOptions{Origin: "sim"})
	st := tr.StartTrace("request", 0)
	st.Span("proxy.cache", "Tl", 1)
	st.Span("origin.fetch", "Ts", 20)
	st.Finish("server", 21)
	st2 := tr.StartTraceID("peer-7", "hop")
	st2.Span("peer.cache", "Tc", 10)
	st2.Finish("peer-proxy", 10)

	var buf bytes.Buffer
	if err := WriteChromeTraces(&buf, tr.Snapshots()); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("our own export failed validation: %v", err)
	}
	// The events carry the component tag and scale to microseconds.
	if !strings.Contains(buf.String(), `"cat":"Ts"`) {
		t.Fatalf("missing component category: %s", buf.String())
	}
	var doc struct {
		TraceEvents []struct {
			Ts  float64 `json:"ts"`
			Dur float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5 (2 requests + 3 spans)", len(doc.TraceEvents))
	}

	for _, bad := range []string{
		`{}`,
		`{"traceEvents":[{"ph":"X","ts":0,"dur":1,"pid":1,"tid":1}]}`,
		`{"traceEvents":[{"name":"a","ph":"B","ts":0,"dur":1,"pid":1,"tid":1}]}`,
		`{"traceEvents":[{"name":"a","ph":"X","ts":0,"dur":-1,"pid":1,"tid":1}]}`,
		`{"traceEvents":[{"name":"a","ph":"X","ts":0,"dur":1}]}`,
	} {
		if ValidateChromeTrace([]byte(bad)) == nil {
			t.Fatalf("ValidateChromeTrace accepted %s", bad)
		}
	}
}

func TestPublishMetrics(t *testing.T) {
	tr := NewTracer(TracerOptions{Origin: "sim"})
	st := tr.StartTrace("request", 0)
	st.Span("a", "Tl", 1)
	st.Span("b", "Ts", 1)
	st.Finish("server", 2)
	tr.StartTraceID("up-3", "hop").Span("c", "Tc", 1)

	reg := NewRegistry("t")
	tr.PublishMetrics(reg)
	vals := reg.Values()
	for name, want := range map[string]float64{
		"trace.sampled": 1,
		"trace.joined":  1,
		"trace.spans":   3,
		"trace.dropped": 0,
	} {
		if vals[name] != want {
			t.Fatalf("%s = %v, want %v (all: %v)", name, vals[name], want, vals)
		}
	}
}

func TestDecomposeSkipsUnfinishedAndJoined(t *testing.T) {
	tr := NewTracer(TracerOptions{Origin: "sim"})
	open := tr.StartTrace("request", 0)
	open.Span("a", "Tl", 1) // never finished
	join := tr.StartTraceID("up-9", "hop")
	join.Span("b", "Tc", 1)
	join.Finish("peer-proxy", 1) // finished but not a root
	done := tr.StartTrace("request", 1)
	done.Span("c", "Tl", 1)
	done.Finish("proxy", 1)

	d := tr.Decompose()
	if len(d.Tiers) != 1 || d.Tiers[0].Tier != "proxy" {
		t.Fatalf("decomposition rows = %+v, want just proxy", d.Tiers)
	}
	if math.Abs(d.Tiers[0].Mean()-1) > 1e-12 {
		t.Fatalf("mean = %v", d.Tiers[0].Mean())
	}
}
