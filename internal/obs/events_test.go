package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestEventLogJSONL(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog("proxy-0", &buf)
	l.Emit("ready.up", map[string]string{"peer": "127.0.0.1:9"})
	l.Emit("breaker.open", nil)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines", len(lines))
	}
	var evs [2]Event
	for i, line := range lines {
		if err := json.Unmarshal([]byte(line), &evs[i]); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
	}
	if ev := evs[0]; ev.Source != "proxy-0" || ev.Type != "ready.up" || ev.Fields["peer"] != "127.0.0.1:9" || ev.Time.IsZero() {
		t.Fatalf("event = %+v", ev)
	}
	if ev := evs[1]; ev.Type != "breaker.open" || ev.Fields != nil {
		t.Fatalf("event = %+v", ev)
	}
}

func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	l.Emit("x", nil) // must not panic
}
