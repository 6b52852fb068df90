// Package loadgen is the live load-generation subsystem: it replays a
// trace.Trace over real HTTP against a hiergdd proxy/client-cache
// topology (internal/httpcache) and measures what comes back.
//
// The simulator half of the repo predicts; this package observes.  It
// supports both driving disciplines from the measurement literature:
//
//   - open loop: requests are released on an arrival process's
//     schedule (Poisson or bursty on/off, deterministically seeded)
//     regardless of completions, so queueing delay shows up in the
//     latency histogram instead of throttling the offered load;
//   - closed loop: N workers issue back-to-back requests with optional
//     think time, the classic saturation driver.
//
// Every response is attributed to its serving tier via the
// httpcache.ServedByHeader header, latencies land in per-tier
// log-scale histograms (p50/p90/p99/p999/max after a warmup discard),
// counters stream through the internal/obs registry (loadgen.*
// namespace, METRICS.md), and Calibrate replays the same trace through
// internal/sim with identical capacities to make sim-vs-live drift a
// single measurable table.
package loadgen

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"webcache/internal/httpcache"
	"webcache/internal/netmodel"
	"webcache/internal/obs"
)

// Tier is the serving tier a live response was attributed to.
type Tier int

const (
	// TierProxy: the local proxy's cache (Tl).
	TierProxy Tier = iota
	// TierClientCache: the proxy's own P2P client cache (Tp2p).
	TierClientCache
	// TierRemoteProxy: a cooperating proxy, from its cache or relayed
	// from its client caches (Tc).
	TierRemoteProxy
	// TierOrigin: the origin server (Ts).
	TierOrigin
	// TierUnknown: a 200 response without a recognized tier header — a
	// response path the attribution audit missed.
	TierUnknown
	// TierError: transport error or non-200 status.
	TierError
	numTiers
)

// NumTiers is the number of distinct Tier values.
const NumTiers = int(numTiers)

// String implements fmt.Stringer (metric-friendly labels).
func (t Tier) String() string {
	switch t {
	case TierProxy:
		return "proxy"
	case TierClientCache:
		return "client_cache"
	case TierRemoteProxy:
		return "remote_proxy"
	case TierOrigin:
		return "origin"
	case TierUnknown:
		return "unknown"
	case TierError:
		return "error"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// ParseTier maps an httpcache ServedByHeader value to a Tier.
func ParseTier(h string) Tier {
	switch h {
	case httpcache.TierProxy:
		return TierProxy
	case httpcache.TierProxyDisk:
		// The persistent tier is still the local proxy serving the
		// object (Tl in the latency model) — which medium held it is
		// the proxy's own accounting, not a calibration tier.
		return TierProxy
	case httpcache.TierClientCache:
		return TierClientCache
	case httpcache.TierRemoteProxy:
		return TierRemoteProxy
	case httpcache.TierOrigin:
		return TierOrigin
	default:
		return TierUnknown
	}
}

// Source maps a live tier onto the simulator's serving-tier enum for
// calibration; ok is false for the tiers the model has no counterpart
// of (unknown, error).
func (t Tier) Source() (netmodel.Source, bool) {
	switch t {
	case TierProxy:
		return netmodel.SrcLocalProxy, true
	case TierClientCache:
		return netmodel.SrcP2P, true
	case TierRemoteProxy:
		return netmodel.SrcRemoteProxy, true
	case TierOrigin:
		return netmodel.SrcServer, true
	default:
		return 0, false
	}
}

// Outcome is one request's observed result.
type Outcome struct {
	Tier    Tier
	Latency time.Duration
	Status  int
	Err     error
}

// Target issues one scheduled request and reports its outcome.  The
// driver calls Do from many goroutines.
type Target interface {
	Do(r ScheduledRequest) Outcome
}

// HTTPTarget is the real-socket target: GET the scheduled URL, read
// the body to completion (latency includes the transfer), attribute
// the tier from the response header.
type HTTPTarget struct {
	Client *http.Client
}

// NewHTTPTarget builds a target with the given per-request timeout on
// the daemons' shared tuned transport (httpcache.NewTransport): the
// driver concentrates its whole request stream on a handful of proxy
// hosts, the exact topology the stock per-host idle limit starves.
func NewHTTPTarget(timeout time.Duration) *HTTPTarget {
	return &HTTPTarget{Client: &http.Client{Timeout: timeout, Transport: httpcache.NewTransport()}}
}

// CloseIdleConnections drops the driver's pooled connections.  Bench
// runs call this between Run and Topology.Close: connections the
// transport dialed but never used are StateNew to the daemons, and
// http.Server.Shutdown reaps those only after a 5s grace — an undropped
// driver pool stalls every topology drain by that long.
func (t *HTTPTarget) CloseIdleConnections() { t.Client.CloseIdleConnections() }

// Do implements Target.
func (t *HTTPTarget) Do(r ScheduledRequest) Outcome {
	req, err := http.NewRequest("GET", r.URL, nil)
	if err != nil {
		return Outcome{Tier: TierError, Err: err}
	}
	if r.TraceID != "" {
		req.Header.Set(httpcache.TraceHeader, r.TraceID)
	}
	if r.Class != "" {
		req.Header.Set(httpcache.SLOHeader, r.Class)
	}
	start := time.Now()
	resp, err := t.Client.Do(req)
	if err != nil {
		return Outcome{Tier: TierError, Latency: time.Since(start), Err: err}
	}
	_, cerr := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if cerr != nil {
		return Outcome{Tier: TierError, Latency: lat, Status: resp.StatusCode, Err: cerr}
	}
	if resp.StatusCode != http.StatusOK {
		return Outcome{Tier: TierError, Latency: lat, Status: resp.StatusCode,
			Err: fmt.Errorf("loadgen: status %d", resp.StatusCode)}
	}
	return Outcome{Tier: ParseTier(resp.Header.Get(httpcache.ServedByHeader)),
		Latency: lat, Status: resp.StatusCode}
}

// Mode selects the driving discipline.
type Mode int

const (
	// OpenLoop releases requests on the Arrival schedule.
	OpenLoop Mode = iota
	// ClosedLoop runs Workers back-to-back issuers with think time.
	ClosedLoop
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ClosedLoop {
		return "closed"
	}
	return "open"
}

// Options parameterizes one driving run.
type Options struct {
	// Mode selects open- or closed-loop driving.
	Mode Mode
	// Arrival is the open-loop release schedule (required for OpenLoop).
	Arrival Arrival
	// MaxInflight bounds open-loop concurrency (default 512).  When the
	// target falls this far behind, releases block — the overload is
	// counted in Result.Throttled rather than exhausting sockets.
	MaxInflight int
	// Workers is the closed-loop concurrency (default 8); Think is the
	// per-worker pause between requests.
	Workers int
	Think   time.Duration
	// Duration stops issuing when the clock budget is spent (0 = run
	// the whole schedule).  In-flight requests are always drained.
	Duration time.Duration
	// Warmup discards the outcomes of the first N scheduled requests
	// from all accounting; the requests are still issued, warming the
	// caches exactly like sim.Config.WarmupRequests.
	Warmup int
	// Clock defaults to the wall clock; tests inject FakeClock.
	Clock Clock
	// Obs, when non-nil, streams driver counters into the registry
	// (the loadgen.* namespace; nil disables at zero cost).
	Obs *obs.Registry
	// Tracer, when non-nil, head-samples span traces: each sampled
	// request carries its trace id to the daemons (ScheduledRequest.
	// TraceID → httpcache.TraceHeader), and the driver records the
	// client-observed round trip as the root trace (wall clock).
	Tracer *obs.Tracer
	// ClassFor, when non-nil, tags each request with an SLO class at
	// issue time (ScheduledRequest.Class → httpcache.SLOHeader): the
	// proxies account it server-side (slo.Tracker).
	ClassFor func(ScheduledRequest) string
}

// Result is one driving run's measurements.
type Result struct {
	Mode Mode
	// Issued counts requests released (warmup included); Measured the
	// post-warmup successful ones; Errors the post-warmup failures;
	// WarmupDiscarded the outcomes dropped by the warmup rule.
	Issued, Measured, Errors, WarmupDiscarded int
	// Throttled counts open-loop releases that blocked on MaxInflight.
	Throttled int
	// Elapsed is first release to last completion; AchievedRate is
	// Issued/Elapsed in requests/second.
	Elapsed      time.Duration
	AchievedRate float64
	// Tiers counts post-warmup outcomes by tier; PerTier holds the
	// matching latency histograms; Overall merges the successful tiers.
	Tiers   [numTiers]int
	PerTier [numTiers]*Histogram
	Overall *Histogram
}

// HitRatio is the fraction of measured (post-warmup, successful)
// requests served by tier t.
func (r *Result) HitRatio(t Tier) float64 {
	if r.Measured == 0 {
		return 0
	}
	return float64(r.Tiers[t]) / float64(r.Measured)
}

// AggregateHitRatio is the fraction of measured requests that any
// cache tier absorbed (1 - origin share).
func (r *Result) AggregateHitRatio() float64 {
	if r.Measured == 0 {
		return 0
	}
	return 1 - float64(r.Tiers[TierOrigin])/float64(r.Measured)
}

// recorder accumulates outcomes concurrently.
type recorder struct {
	warmup    int
	issued    atomic.Int64
	discarded atomic.Int64
	errors    atomic.Int64
	measured  atomic.Int64
	tiers     [numTiers]atomic.Int64
	perTier   [numTiers]*Histogram
	overall   *Histogram

	reg      *obs.Registry
	reqTimer *obs.Timer
	// The per-request counters, resolved once (nil without a registry)
	// so record neither builds a name nor takes the registry lock.
	issuedCtr, discardedCtr *obs.Counter
	servesCtr               [numTiers]*obs.Counter
}

func newRecorder(warmup int, reg *obs.Registry) *recorder {
	// The latency distributions ARE registry histograms when a registry
	// is attached — first-class metrics, flattened to .p50/.p90/... in
	// Values() and exported as summaries on /metrics.  Without one they
	// fall back to private histograms so Result keeps working.
	overall := reg.Histogram("loadgen.latency")
	if overall == nil {
		overall = &Histogram{}
	}
	// Resolving a handle registers it, so every run exports the same
	// metric names regardless of which paths fired — manifests stay
	// diffable run to run and the doc-drift test can hold any smoke run
	// against the METRICS.md glossary.
	rec := &recorder{warmup: warmup, reg: reg, overall: overall,
		reqTimer:     reg.Timer("loadgen.request"),
		issuedCtr:    reg.Counter("loadgen.issued"),
		discardedCtr: reg.Counter("loadgen.warmup_discarded")}
	for i := range rec.perTier {
		h := reg.Histogram("loadgen.latency.tier." + Tier(i).String())
		if h == nil {
			h = &Histogram{}
		}
		rec.perTier[i] = h
		rec.servesCtr[i] = reg.Counter("loadgen.serves." + Tier(i).String())
	}
	reg.Counter("loadgen.throttled").Add(0)
	reg.Gauge("loadgen.inflight.max").SetMax(0)
	return rec
}

func (rec *recorder) record(idx int, o Outcome) {
	rec.issued.Add(1)
	rec.issuedCtr.Inc()
	rec.reqTimer.Observe(o.Latency)
	if idx < rec.warmup {
		rec.discarded.Add(1)
		rec.discardedCtr.Inc()
		return
	}
	rec.tiers[o.Tier].Add(1)
	rec.perTier[o.Tier].Observe(o.Latency)
	rec.servesCtr[o.Tier].Inc()
	if o.Tier == TierError {
		rec.errors.Add(1)
		return
	}
	rec.measured.Add(1)
	rec.overall.Observe(o.Latency)
}

func (rec *recorder) result(mode Mode, elapsed time.Duration, throttled int) *Result {
	res := &Result{
		Mode:            mode,
		Issued:          int(rec.issued.Load()),
		Measured:        int(rec.measured.Load()),
		Errors:          int(rec.errors.Load()),
		WarmupDiscarded: int(rec.discarded.Load()),
		Throttled:       throttled,
		Elapsed:         elapsed,
		Overall:         rec.overall,
	}
	for i := range res.Tiers {
		res.Tiers[i] = int(rec.tiers[i].Load())
		res.PerTier[i] = rec.perTier[i]
	}
	if elapsed > 0 {
		res.AchievedRate = float64(res.Issued) / elapsed.Seconds()
	}
	return res
}

// Run drives the schedule against the target under the configured
// discipline and returns the measurements.  Cancelling ctx stops
// issuing; in-flight requests are drained either way.
func Run(ctx context.Context, sched *Schedule, tgt Target, opts Options) (*Result, error) {
	if sched == nil || len(sched.Requests) == 0 {
		return nil, fmt.Errorf("loadgen: empty schedule")
	}
	if tgt == nil {
		return nil, fmt.Errorf("loadgen: nil target")
	}
	if opts.Warmup < 0 {
		return nil, fmt.Errorf("loadgen: negative warmup %d", opts.Warmup)
	}
	clock := opts.Clock
	if clock == nil {
		clock = realClock{}
	}
	rec := newRecorder(opts.Warmup, opts.Obs)
	// issue runs one scheduled request, wrapping it in a span trace
	// when the tracer samples it: the trace id propagates to every
	// daemon hop, and the root trace records the client-observed RTT.
	issue := func(i int) {
		req := sched.Requests[i]
		st := opts.Tracer.StartTrace("request", 0)
		req.TraceID = st.TraceID()
		if opts.ClassFor != nil && req.Class == "" {
			req.Class = opts.ClassFor(req)
		}
		o := tgt.Do(req)
		comp := ""
		if src, ok := o.Tier.Source(); ok {
			comp = string(netmodel.ServeComponent(src))
		}
		st.Span("fetch."+o.Tier.String(), comp, o.Latency.Seconds())
		st.FinishWall(o.Tier.String())
		rec.record(i, o)
	}
	start := clock.Now()
	var deadline time.Time
	if opts.Duration > 0 {
		deadline = start.Add(opts.Duration)
	}
	expired := func() bool {
		if ctx.Err() != nil {
			return true
		}
		return !deadline.IsZero() && !clock.Now().Before(deadline)
	}

	var throttled int
	switch opts.Mode {
	case OpenLoop:
		if opts.Arrival == nil {
			return nil, fmt.Errorf("loadgen: open loop needs an Arrival process")
		}
		maxInflight := opts.MaxInflight
		if maxInflight <= 0 {
			maxInflight = 512
		}
		sem := make(chan struct{}, maxInflight)
		inflightMax := rec.reg.Gauge("loadgen.inflight.max")
		var cur atomic.Int64
		var wg sync.WaitGroup
		for i := range sched.Requests {
			if expired() {
				break
			}
			clock.Sleep(opts.Arrival.Next())
			select {
			case sem <- struct{}{}:
			default:
				// The target is maxInflight requests behind schedule:
				// block (and count it) instead of spawning unboundedly.
				throttled++
				rec.reg.Counter("loadgen.throttled").Inc()
				sem <- struct{}{}
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				inflightMax.SetMax(float64(cur.Add(1)))
				issue(i)
				cur.Add(-1)
			}(i)
		}
		wg.Wait()

	case ClosedLoop:
		workers := opts.Workers
		if workers <= 0 {
			workers = 8
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if expired() {
						return
					}
					i := int(next.Add(1)) - 1
					if i >= len(sched.Requests) {
						return
					}
					issue(i)
					if opts.Think > 0 {
						clock.Sleep(opts.Think)
					}
				}
			}()
		}
		wg.Wait()

	default:
		return nil, fmt.Errorf("loadgen: unknown mode %d", opts.Mode)
	}

	res := rec.result(opts.Mode, clock.Now().Sub(start), throttled)
	res.PublishMetrics(opts.Obs)
	return res, nil
}

// PublishMetrics folds the run's summary into the registry.  The
// latency distributions are already first-class registry histograms
// when the run streamed into reg (newRecorder registered them), so
// only a *different* registry needs them merged in — the identity
// guard prevents double counting.  A nil registry is a no-op.
func (r *Result) PublishMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	if h := reg.Histogram("loadgen.latency"); h != r.Overall {
		h.Merge(r.Overall)
	}
	for i, ph := range r.PerTier {
		if h := reg.Histogram("loadgen.latency.tier." + Tier(i).String()); h != ph {
			h.Merge(ph)
		}
	}
	reg.Gauge("loadgen.achieved_rate").Set(r.AchievedRate)
}
