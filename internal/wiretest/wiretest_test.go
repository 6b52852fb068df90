package wiretest

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// recordingTB stands in for the test a violation would fail.
type recordingTB struct {
	testing.TB
	errors int
}

func (r *recordingTB) Errorf(string, ...any) { r.errors++ }

func TestStrictFraming(t *testing.T) {
	for _, tc := range []struct {
		name     string
		path     string
		size     int
		declare  bool
		wantFail bool
	}{
		{"short and unsized: net/http fills the length in", "/fetch", undeclaredMax, false, false},
		{"long and unsized: leaves chunked", "/fetch", undeclaredMax + 1, false, true},
		{"long and declared", "/fetch", 1 << 20, true, false},
		{"operator endpoint", "/metrics", 1 << 20, false, false},
	} {
		tb := &recordingTB{TB: t}
		h := StrictFraming(tb, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if tc.declare {
				w.Header().Set("Content-Length", strconv.Itoa(tc.size))
			}
			// In two writes: the check is on the reply, not on one call.
			w.Write(make([]byte, tc.size/2))
			w.Write(make([]byte, tc.size-tc.size/2))
		}))
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", tc.path, nil))
		if failed := tb.errors > 0; failed != tc.wantFail {
			t.Errorf("%s: %d errors reported, want failure = %v", tc.name, tb.errors, tc.wantFail)
		}
	}
}
