package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Structured state-transition event log.  Daemons emit one JSONL
// record per control-plane transition — member join/leave, breaker
// open/close, SLO burn-rate threshold crossings, readiness flips — so
// an operator can reconstruct *why* the data-plane metrics moved
// without correlating log prose.  The log keeps a bounded in-memory
// tail for dashboards and tests, and optionally streams every record
// to a writer (a file, or stderr).
//
// Like every obs handle, a nil *EventLog ignores all operations, so
// call sites emit unconditionally.

// Event is one state-transition record.
type Event struct {
	Time time.Time `json:"ts"`
	// Source names the emitting process ("proxy-1", "cache-0-2", ...).
	Source string `json:"source,omitempty"`
	// Type is the transition kind, dotted lowercase: "ready.up",
	// "breaker.open", "slo.page", "ready.drain", ...
	Type string `json:"type"`
	// Fields carries the transition's context (peer address, class
	// name, burn rate, ...), all values pre-rendered as strings so the
	// JSONL schema stays flat and greppable.
	Fields map[string]string `json:"fields,omitempty"`
}

// eventTail is the bounded in-memory history an EventLog retains.
const eventTail = 256

// EventLog is a thread-safe JSONL event sink.
type EventLog struct {
	source string

	mu     sync.Mutex
	w      io.Writer
	recent []Event // ring buffer, eventTail capacity
	next   int
	total  int64
}

// NewEventLog creates an event log for one emitting process.  w
// receives one JSON line per event; nil keeps events in memory only.
func NewEventLog(source string, w io.Writer) *EventLog {
	return &EventLog{source: source, w: w}
}

// Emit records one event, stamping the wall clock and the log's
// source.  Marshal errors are impossible for the flat schema; write
// errors are swallowed (the event still lands in the tail) — the
// event log must never take a daemon down.
func (l *EventLog) Emit(typ string, fields map[string]string) {
	if l == nil {
		return
	}
	ev := Event{Time: time.Now(), Source: l.source, Type: typ, Fields: fields}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.recent) < eventTail {
		l.recent = append(l.recent, ev)
	} else {
		l.recent[l.next] = ev
		l.next = (l.next + 1) % eventTail
	}
	l.total++
	if l.w != nil {
		if b, err := json.Marshal(ev); err == nil {
			l.w.Write(append(b, '\n'))
		}
	}
}

// Recent returns up to n most-recent events, oldest first.
func (l *EventLog) Recent(n int) []Event {
	if l == nil || n <= 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ordered := make([]Event, 0, len(l.recent))
	if len(l.recent) < eventTail {
		ordered = append(ordered, l.recent...)
	} else {
		ordered = append(ordered, l.recent[l.next:]...)
		ordered = append(ordered, l.recent[:l.next]...)
	}
	if len(ordered) > n {
		ordered = ordered[len(ordered)-n:]
	}
	return ordered
}

// Total returns the number of events emitted over the log's lifetime
// (including any that have rotated out of the tail).
func (l *EventLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}
