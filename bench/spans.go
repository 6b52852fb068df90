package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of it.  Start and End are nanoseconds since the
// recorder's epoch; Req groups the spans of one request (empty when the
// call carried no trace id) and Parent names the span that caused it.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Req    string `json:"req,omitempty"`
	Parent string `json:"parent,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanRecorder keeps spans in memory until the run ends.  A nil
// recorder records nothing, so untraced runs pay one nil check.
type spanRecorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

func (r *spanRecorder) add(name, parent, req string, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{Name: name, Parent: parent, Req: req,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed records fn as one span and returns how long it took.
func (r *spanRecorder) timed(name, parent, req string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.add(name, parent, req, start, end)
	return end.Sub(start)
}

func (r *spanRecorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile dumps the spans as JSON lines.
func (r *spanRecorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, index-aligned with spans, each span's duration
// minus the part of its interval that its children cover.  A child is a
// span of the same request whose Parent is this span's name; children
// may nest or overlap one another, so the covered part is the union of
// their intervals clipped to the parent.  Spans without a request id
// have no children (nothing ties them to a parent).
func selfTimes(spans []span) []int64 {
	type key struct{ req, parent string }
	children := make(map[key][]int)
	for i, s := range spans {
		if s.Req != "" && s.Parent != "" {
			k := key{s.Req, s.Parent}
			children[k] = append(children[k], i)
		}
	}
	self := make([]int64, len(spans))
	for i, p := range spans {
		self[i] = p.dur()
		if p.Req == "" {
			continue
		}
		kids := children[key{p.Req, p.Name}]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		cursor := p.Start
		for _, ci := range kids {
			lo, hi := spans[ci].Start, spans[ci].End
			if lo < cursor {
				lo = cursor
			}
			if hi > p.End {
				hi = p.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// spanStats is one span name's aggregate: calls, busy seconds and mean
// self time.
type spanStats struct {
	calls  int
	busyNs int64
	selfNs int64
}

func (s spanStats) busySeconds() float64 { return float64(s.busyNs) / 1e9 }

func (s spanStats) selfMeanUs() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.selfNs) / float64(s.calls) / 1e3
}

func aggregateSpans(spans []span) map[string]spanStats {
	self := selfTimes(spans)
	out := make(map[string]spanStats)
	for i, s := range spans {
		st := out[s.Name]
		st.calls++
		st.busyNs += s.dur()
		st.selfNs += self[i]
		out[s.Name] = st
	}
	return out
}
