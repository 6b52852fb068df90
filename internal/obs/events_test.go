package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestEventLogJSONLAndTail(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog("proxy-0", &buf)
	l.Emit("ready.up", map[string]string{"peer": "127.0.0.1:9"})
	l.Emit("breaker.open", nil)
	if l.Total() != 2 {
		t.Fatalf("total = %d", l.Total())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines", len(lines))
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if ev.Source != "proxy-0" || ev.Type != "ready.up" || ev.Fields["peer"] != "127.0.0.1:9" || ev.Time.IsZero() {
		t.Fatalf("event = %+v", ev)
	}
	recent := l.Recent(10)
	if len(recent) != 2 || recent[0].Type != "ready.up" || recent[1].Type != "breaker.open" {
		t.Fatalf("recent = %+v", recent)
	}
}

func TestEventLogRingRotation(t *testing.T) {
	l := NewEventLog("x", nil)
	for i := 0; i < eventTail+10; i++ {
		l.Emit("tick", nil)
	}
	l.Emit("last", nil)
	recent := l.Recent(5)
	if len(recent) != 5 || recent[4].Type != "last" {
		t.Fatalf("tail after rotation = %+v", recent)
	}
	if l.Total() != int64(eventTail)+11 {
		t.Fatalf("total = %d", l.Total())
	}
}

func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	l.Emit("x", nil)
	if l.Recent(3) != nil || l.Total() != 0 {
		t.Fatal("nil event log did something")
	}
}
