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
// without correlating log prose.  Every record goes to the log's writer
// (a file, or stderr); the log keeps none of them.
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

// EventLog is a thread-safe JSONL event sink.
type EventLog struct {
	source string

	mu sync.Mutex
	w  io.Writer
}

// NewEventLog creates an event log for one emitting process.  w, which
// must not be nil, receives one JSON line per event.
func NewEventLog(source string, w io.Writer) *EventLog {
	return &EventLog{source: source, w: w}
}

// Emit records one event, stamping the wall clock and the log's
// source.  Marshal errors are impossible for the flat schema; write
// errors are swallowed — the event log must never take a daemon down.
func (l *EventLog) Emit(typ string, fields map[string]string) {
	if l == nil {
		return
	}
	ev := Event{Time: time.Now(), Source: l.source, Type: typ, Fields: fields}
	l.mu.Lock()
	defer l.mu.Unlock()
	if b, err := json.Marshal(ev); err == nil {
		l.w.Write(append(b, '\n'))
	}
}
