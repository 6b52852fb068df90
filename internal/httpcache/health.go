package httpcache

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"webcache/internal/obs"
)

// SLOHeader tags a request with its SLO class: the load generator
// stamps it on /fetch, and a proxy configured with an slo.Tracker
// accounts the request against that class's error budget.
const SLOHeader = "X-SLO-Class"

// readiness is the liveness/readiness surface both daemons embed:
//
//	GET /healthz  liveness — 200 whenever the process can serve at all
//	GET /readyz   readiness — 503 "starting" until the daemon is constructed
//	              and (when applicable) registered;
//	              503 "draining" again once graceful shutdown begins,
//	              so load balancers stop routing before the listener
//	              closes.
//
// The daemon bring-up path owns the transition: MarkReady is called
// once construction and, for a client cache, registration with its
// proxy complete.  Transitions are emitted to the event log the daemon
// was built with (Options.Events).
type readiness struct {
	ready    atomic.Bool
	draining atomic.Bool

	events *obs.EventLog
}

// MarkReady flips /readyz to 200.
func (h *readiness) MarkReady() {
	if h.ready.CompareAndSwap(false, true) {
		h.events.Emit("ready.up", nil)
	}
}

// MarkDraining flips /readyz to 503 "draining" for graceful shutdown;
// /healthz stays 200 while in-flight requests finish.
func (h *readiness) MarkDraining() {
	if h.draining.CompareAndSwap(false, true) {
		h.events.Emit("ready.drain", nil)
	}
}

// Ready reports the current readiness (false while draining).
func (h *readiness) Ready() bool { return h.ready.Load() && !h.draining.Load() }

func (h *readiness) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	fmt.Fprintln(w, "ok")
}

func (h *readiness) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if h.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if !h.ready.Load() {
		http.Error(w, "starting", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// registerHealth mounts the probe endpoints on a daemon mux.
func (h *readiness) registerHealth(mux *http.ServeMux) {
	mux.HandleFunc("GET /healthz", h.handleHealthz)
	mux.HandleFunc("GET /readyz", h.handleReadyz)
}

// statusWriter captures the response status for SLO accounting.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

// withSLO wraps the fetch handler with per-class accounting: wall
// latency and 5xx failures spend the tagged class's error budget.
func (p *Proxy) withSLO(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if p.slo == nil {
			h(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		p.slo.Observe(r.Header.Get(SLOHeader), time.Since(start), sw.status >= 500)
	}
}
