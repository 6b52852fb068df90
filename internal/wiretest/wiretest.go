// Package wiretest holds the test-only middleware that keeps the
// federation's framing rule (DESIGN.md §9, "The wire") in tier-1: every
// body-carrying message declares its length.  It imports nothing of the
// data plane, so internal/httpcache's own tests and the loopback tests of
// the packages above it wrap their daemons with the same check.
package wiretest

import (
	"net/http"
	"testing"
)

// undeclaredMax is what net/http buffers before it gives up on filling in
// a Content-Length itself: a reply the handler left unsized goes out
// chunked once it is longer than this.
const undeclaredMax = 2 << 10

// StrictFraming fails t when h writes a reply body longer than net/http's
// pre-chunk buffer without having declared its length: the reply would
// cross the hop chunked, which is what a handler writing an object body
// around httpcache's serve does.  The operator endpoint /metrics
// streams text of no fixed size and is not a message of the protocol;
// it is let through.
func StrictFraming(t testing.TB, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			h.ServeHTTP(w, r)
			return
		}
		h.ServeHTTP(&framed{ResponseWriter: w, t: t, what: r.Method + " " + r.URL.Path}, r)
	})
}

type framed struct {
	http.ResponseWriter
	t       testing.TB
	what    string
	unsized int // bytes written with no Content-Length declared
}

// Unwrap lets http.ResponseController reach the connection beneath, for
// the daemons' upgrade to frames.
func (f *framed) Unwrap() http.ResponseWriter { return f.ResponseWriter }

func (f *framed) Write(p []byte) (int, error) {
	if f.Header().Get("Content-Length") == "" {
		f.unsized += len(p)
		if f.unsized > undeclaredMax && f.unsized-len(p) <= undeclaredMax { // the write that crosses it
			f.t.Errorf("%s wrote %d body bytes with no Content-Length: the reply leaves chunked", f.what, f.unsized)
		}
	}
	return f.ResponseWriter.Write(p)
}
