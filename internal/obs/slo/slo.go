// Package slo is the service-level-objective layer: declarative SLO
// classes, per-class error-budget accounting over sliding windows, and
// multi-window burn-rate alerting in the style of the SRE workbook.
//
// A Class states the objective: a per-request latency bound and an
// availability target over a window.  A request is "good" when it
// succeeds within the latency objective and "bad" otherwise, so the
// error budget unifies availability and latency into one SLI.  The
// Tracker counts good/bad per class in a bucketed sliding window and
// derives two burn rates:
//
//   - fast window (Window/12, e.g. 5m of a 1h window) — catches sudden
//     regressions; a burn of pageBurn (14.4) or more emits "slo.page";
//   - slow window (the full Window) — catches slow bleeds; a burn of
//     ticketBurn (3) or more emits "slo.ticket".
//
// A burn rate of 1.0 means the class is consuming its error budget
// exactly as fast as the objective allows; 14.4 exhausts a 30-day
// budget in 2 days.
//
// The proxy daemon feeds a Tracker from the X-SLO-Class request header
// and publishes the slo.* gauges on its /metrics (METRICS.md), where
// the cluster view (internal/obs/cluster) reads them.
package slo

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"webcache/internal/obs"
)

// Class is one declarative SLO class.
type Class struct {
	// Name tags requests (the X-SLO-Class header value) and scopes the
	// slo.<name>.* metrics.
	Name string `json:"name"`
	// Latency is the per-request latency objective: a slower success
	// still spends error budget.
	Latency time.Duration `json:"latency_ns"`
	// Availability is the objective good-fraction over Window
	// (0 < Availability < 1, e.g. 0.999).
	Availability float64 `json:"availability"`
	// Window is the slow error-budget window; the fast window is
	// Window/12 (5m : 1h).
	Window time.Duration `json:"window_ns"`
}

// fillDefaults applies the bench-scale defaults: 100ms at three nines
// over a minute.
func (c *Class) fillDefaults() {
	if c.Latency <= 0 {
		c.Latency = 100 * time.Millisecond
	}
	if c.Availability <= 0 || c.Availability >= 1 {
		c.Availability = 0.999
	}
	if c.Window <= 0 {
		c.Window = time.Minute
	}
}

// ParseClass parses the flag syntax "name:latency:availability[:window]"
// ("interactive:50ms:0.999:1m"); empty latency/availability/window
// fields take the defaults.  A window must cover one nanosecond per
// ring bucket.
func ParseClass(spec string) (Class, error) {
	parts := strings.Split(spec, ":")
	if parts[0] == "" {
		return Class{}, fmt.Errorf("slo: class spec %q needs a name", spec)
	}
	if len(parts) > 4 {
		return Class{}, fmt.Errorf("slo: class spec %q has more than four fields", spec)
	}
	c := Class{Name: parts[0]}
	if len(parts) > 1 && parts[1] != "" {
		d, err := time.ParseDuration(parts[1])
		if err != nil {
			return Class{}, fmt.Errorf("slo: class %q latency: %v", c.Name, err)
		}
		c.Latency = d
	}
	if len(parts) > 2 && parts[2] != "" {
		a, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || a <= 0 || a >= 1 {
			return Class{}, fmt.Errorf("slo: class %q availability %q must be in (0,1)", c.Name, parts[2])
		}
		c.Availability = a
	}
	if len(parts) > 3 && parts[3] != "" {
		w, err := time.ParseDuration(parts[3])
		if err != nil {
			return Class{}, fmt.Errorf("slo: class %q window: %v", c.Name, err)
		}
		if w < windowBuckets {
			return Class{}, fmt.Errorf("slo: class %q window %v is shorter than %dns", c.Name, w, windowBuckets)
		}
		c.Window = w
	}
	c.fillDefaults()
	return c, nil
}

// ParseClasses parses a comma-separated list of class specs; a class
// name may appear once.
func ParseClasses(specs string) ([]Class, error) {
	var out []Class
	seen := map[string]bool{}
	for _, spec := range strings.Split(specs, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		c, err := ParseClass(spec)
		if err != nil {
			return nil, err
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("slo: class %q declared twice", c.Name)
		}
		seen[c.Name] = true
		out = append(out, c)
	}
	return out, nil
}

// The burn-rate alert levels of the SRE workbook: 14.4x on the fast
// window pages, 3x on the slow window tickets.
const (
	pageBurn   = 14.4
	ticketBurn = 3
)

// windowBuckets is the sliding-window resolution: the slow window is
// covered by this many ring buckets, so the fast window (Window/12)
// spans windowBuckets/12 of them exactly.
const windowBuckets = 60

// fastDivisor relates the two windows (1h : 5m).
const fastDivisor = 12

// bucket is one time slice of a class's good/bad ledger.
type bucket struct {
	epoch     int64 // bucket sequence number; 0 = never used
	good, bad int64
}

// classState is one class's sliding ledger plus its published
// instruments.
type classState struct {
	cls Class

	mu      sync.Mutex
	ring    [windowBuckets]bucket
	good    int64 // lifetime totals
	bad     int64
	failed  int64 // bad subset: outright failures (vs latency breaches)
	paging  bool
	ticking bool

	gGood, gBad, gFast, gSlow, gPaging *obs.Gauge
}

// Tracker accounts requests against a set of SLO classes.
type Tracker struct {
	classes map[string]*classState
	order   []string
	events  *obs.EventLog
	now     func() time.Time // the tests step it by hand
}

// NewTracker builds a tracker for the given classes, registering each
// class's slo.<name>.* instruments in reg up front (nil reg disables
// publication but not accounting).  Requests observed under an
// undeclared class are folded into the first declared class, so a
// misconfigured client cannot open an unbounded namespace.
func NewTracker(reg *obs.Registry, classes []Class) *Tracker {
	t := &Tracker{classes: map[string]*classState{}, now: time.Now}
	for _, c := range classes {
		c.fillDefaults()
		if _, dup := t.classes[c.Name]; dup || c.Name == "" {
			continue
		}
		st := &classState{cls: c}
		if reg != nil {
			p := "slo." + c.Name + "."
			st.gGood = reg.Gauge(p + "good")
			st.gBad = reg.Gauge(p + "bad")
			st.gFast = reg.Gauge(p + "burn.fast")
			st.gSlow = reg.Gauge(p + "burn.slow")
			st.gPaging = reg.Gauge(p + "paging")
		}
		t.classes[c.Name] = st
		t.order = append(t.order, c.Name)
	}
	return t
}

// SetEvents attaches the event log burn-rate threshold crossings are
// emitted to.
func (t *Tracker) SetEvents(l *obs.EventLog) {
	if t != nil {
		t.events = l
	}
}

// resolve maps a request's class tag onto a declared class (first
// declared class when the tag is unknown or empty).
func (t *Tracker) resolve(class string) *classState {
	if st, ok := t.classes[class]; ok {
		return st
	}
	if len(t.order) == 0 {
		return nil
	}
	return t.classes[t.order[0]]
}

// Observe accounts one request: failed marks an outright failure; a
// success slower than the class's latency objective also spends error
// budget.  A nil tracker ignores the call.
func (t *Tracker) Observe(class string, latency time.Duration, failed bool) {
	if t == nil {
		return
	}
	st := t.resolve(class)
	if st == nil {
		return
	}
	bad := failed || latency > st.cls.Latency
	epoch := t.now().UnixNano() / int64(st.bucketDur())
	st.mu.Lock()
	b := &st.ring[int(epoch%windowBuckets)]
	if b.epoch != epoch {
		b.epoch, b.good, b.bad = epoch, 0, 0
	}
	if bad {
		b.bad++
		st.bad++
		if failed {
			st.failed++
		}
	} else {
		b.good++
		st.good++
	}
	st.mu.Unlock()
}

// bucketDur is one ring slice of the class's slow window, at least
// 1ns: a Class built in code is not checked by ParseClass.
func (st *classState) bucketDur() time.Duration {
	return max(st.cls.Window/windowBuckets, 1)
}

// windowCounts sums the ledger over the trailing n buckets ending at
// the current epoch.  Caller holds st.mu.
func (st *classState) windowCounts(nowEpoch int64, n int) (good, bad int64) {
	for i := range st.ring {
		b := &st.ring[i]
		if b.epoch > nowEpoch-int64(n) && b.epoch <= nowEpoch {
			good += b.good
			bad += b.bad
		}
	}
	return good, bad
}

// BurnRate is the error-budget burn: the observed bad fraction over
// the allowed bad fraction (1 - availability).  Zero traffic burns
// nothing.
func BurnRate(bad, total int64, availability float64) float64 {
	if total == 0 {
		return 0
	}
	budget := 1 - availability
	if budget <= 0 {
		budget = 1e-9
	}
	return (float64(bad) / float64(total)) / budget
}

// ClassReport is one class's accounting snapshot.
type ClassReport struct {
	Class    Class   `json:"class"`
	Requests int64   `json:"requests"`
	Bad      int64   `json:"bad"`
	Failed   int64   `json:"failed"`
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	Paging   bool    `json:"paging"`
}

// Report snapshots every class, updates the published gauges, and
// emits threshold-crossing events, in declaration order.
func (t *Tracker) Report() []ClassReport {
	if t == nil {
		return nil
	}
	out := make([]ClassReport, 0, len(t.order))
	for _, name := range t.order {
		out = append(out, t.reportClass(t.classes[name]))
	}
	return out
}

func (t *Tracker) reportClass(st *classState) ClassReport {
	nowEpoch := t.now().UnixNano() / int64(st.bucketDur())
	st.mu.Lock()
	slowGood, slowBad := st.windowCounts(nowEpoch, windowBuckets)
	fastGood, fastBad := st.windowCounts(nowEpoch, windowBuckets/fastDivisor)
	r := ClassReport{
		Class:    st.cls,
		Requests: st.good + st.bad,
		Bad:      st.bad,
		Failed:   st.failed,
		FastBurn: BurnRate(fastBad, fastGood+fastBad, st.cls.Availability),
		SlowBurn: BurnRate(slowBad, slowGood+slowBad, st.cls.Availability),
	}
	paging := r.FastBurn >= pageBurn
	ticking := r.SlowBurn >= ticketBurn
	pageFlip, tickFlip := paging != st.paging, ticking != st.ticking
	st.paging, st.ticking = paging, ticking
	st.mu.Unlock()
	r.Paging = paging

	st.gGood.Set(float64(r.Requests - r.Bad))
	st.gBad.Set(float64(r.Bad))
	st.gFast.Set(r.FastBurn)
	st.gSlow.Set(r.SlowBurn)
	if paging {
		st.gPaging.Set(1)
	} else {
		st.gPaging.Set(0)
	}

	if pageFlip {
		typ := "slo.page"
		if !paging {
			typ = "slo.page.clear"
		}
		t.events.Emit(typ, map[string]string{
			"class": st.cls.Name,
			"burn":  strconv.FormatFloat(r.FastBurn, 'f', 3, 64),
		})
	}
	if tickFlip {
		typ := "slo.ticket"
		if !ticking {
			typ = "slo.ticket.clear"
		}
		t.events.Emit(typ, map[string]string{
			"class": st.cls.Name,
			"burn":  strconv.FormatFloat(r.SlowBurn, 'f', 3, 64),
		})
	}
	return r
}
