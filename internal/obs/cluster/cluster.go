// Package cluster is the cluster-wide metrics aggregation plane: a
// scraper that polls every member's /metrics exposition and merges the
// per-process registries into one coherent cluster.* view.
//
// Merge semantics, per exposition family:
//
//   - counters and plain gauges are summed across members (they are
//     per-process totals, so the sum is the cluster total);
//   - histogram bucket families (<name>_seconds_hist) are merged
//     bucket-for-bucket via obs.RestoreHistogram — lossless, so the
//     cluster quantiles are computed from the union of samples rather
//     than averaging per-member quantiles;
//   - ratio-shaped gauges (burn rates, paging flags, budget remaining)
//     are NOT additive: burn rates and paging take the worst member
//     (max), budget remaining the most-spent member (min);
//   - summary families (timer/histogram quantile views) are skipped —
//     the cluster view recomputes quantiles from merged buckets.
//
// Staleness: a member whose scrape fails keeps contributing its
// last-good sample set, flagged stale with its age, so one crashed
// daemon degrades the view instead of zeroing its share of the
// cluster totals.  Member up/down transitions are emitted to the
// event log.
//
// The merged view lands in a fresh obs.Registry per scrape under
// metric names "cluster.<family>" (the exposition family name with
// the webcache_ prefix stripped, underscores kept), exposed by
// Handler as /cluster/metrics (Prometheus text) and /cluster/snapshot
// (JSON).  hiergdd top renders the same snapshots as a live
// dashboard.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"webcache/internal/obs"
)

// Member is one scrape target.
type Member struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// ParseMembers parses the flag syntax "name=url,name=url" (bare URLs
// get member-<i> names).
func ParseMembers(spec string) ([]Member, error) {
	var out []Member
	for i, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		m := Member{Name: fmt.Sprintf("member-%d", i)}
		if eq := strings.IndexByte(part, '='); eq > 0 && !strings.Contains(part[:eq], "/") {
			m.Name, part = part[:eq], part[eq+1:]
		}
		if !strings.Contains(part, "://") {
			part = "http://" + part
		}
		m.URL = strings.TrimRight(part, "/")
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: no members in %q", spec)
	}
	return out, nil
}

// staleAfter caps how long a failed member's last-good samples keep
// contributing before they are dropped from the merged view entirely;
// the member is flagged stale as soon as a scrape fails.
const staleAfter = 30 * time.Second

// Options tunes the aggregator.
type Options struct {
	// Client performs the scrapes (default: 2s-timeout client).
	Client *http.Client
	// Events receives member.up / member.down transitions.
	Events *obs.EventLog
	// Now injects a clock (tests).
	Now func() time.Time
}

// memberData is one member's decoded exposition.
type memberData struct {
	counters map[string]float64
	gauges   map[string]float64
	hists    map[string]*obs.Histogram
}

// memberState is the aggregator's rolling view of one member.
type memberState struct {
	member    Member
	data      *memberData
	scrapedAt time.Time // last successful scrape
	up        bool
	err       string
}

// Aggregator scrapes a fixed member set and merges the results.
type Aggregator struct {
	members []Member
	opts    Options

	mu    sync.Mutex
	state map[string]*memberState
	snap  *Snapshot
}

// New builds an aggregator over the member set.
func New(members []Member, opts Options) *Aggregator {
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 2 * time.Second}
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	a := &Aggregator{members: members, opts: opts, state: map[string]*memberState{}}
	for _, m := range members {
		a.state[m.Name] = &memberState{member: m}
	}
	return a
}

// MemberView is one member's slice of a snapshot.
type MemberView struct {
	Member
	Up    bool   `json:"up"`
	Stale bool   `json:"stale"`
	Err   string `json:"err,omitempty"`
	// AgeSeconds is the age of the data contributing to the merged
	// view (0 for a member scraped this round, -1 never scraped).
	AgeSeconds float64 `json:"age_seconds"`
	Requests   float64 `json:"requests"`
	HitRatio   float64 `json:"hit_ratio"`
	// Objects is the member's store.objects gauge: what its memory
	// cache holds.
	Objects      float64 `json:"objects"`
	BreakerOpens float64 `json:"breaker_opens"`
}

// ClassRollup is the cluster view of one SLO class: additive ledger
// totals plus worst-member burn rates.
type ClassRollup struct {
	Name     string  `json:"name"`
	Good     float64 `json:"good"`
	Bad      float64 `json:"bad"`
	FastBurn float64 `json:"fast_burn"` // max across members
	SlowBurn float64 `json:"slow_burn"` // max across members
	Paging   bool    `json:"paging"`    // any member paging
}

// Snapshot is one aggregation round: the merged cluster.* values, the
// per-member breakdown, and the derived cluster stats.
type Snapshot struct {
	At      time.Time    `json:"at"`
	Members []MemberView `json:"members"`
	// Requests/OriginFetches/HitRatio are the cluster serving stats:
	// Requests sums the members' requests, and OriginFetches counts the
	// replies served from origin (originReplies).
	Requests      float64 `json:"requests"`
	OriginFetches float64 `json:"origin_fetches"`
	HitRatio      float64 `json:"hit_ratio"`
	// SLO is the per-class rollup, present when any member publishes
	// slo.* metrics.
	SLO []ClassRollup `json:"slo,omitempty"`
	// Values is the merged registry flattened (histograms contribute
	// their quantile summaries), every name under cluster.*.
	Values map[string]float64 `json:"values"`

	merged *obs.Registry
}

// Registry returns the merged cluster.* registry behind the snapshot.
func (s *Snapshot) Registry() *obs.Registry { return s.merged }

// scrapeMember fetches and decodes one member's exposition.
func (a *Aggregator) scrapeMember(ctx context.Context, m Member) (*memberData, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", m.URL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := a.opts.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	samples, types, err := obs.ParsePrometheusSamples(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parse /metrics: %v", err)
	}
	return decodeSamples(samples, types), nil
}

// histAcc accumulates one _seconds_hist family during decoding.
type histAcc struct {
	buckets       map[float64]int64
	sum, min, max float64
}

// decodeSamples folds parsed exposition samples into per-family
// counters, gauges, and reconstructed histograms.  Family names are
// the exposition names with the webcache_ prefix and kind suffixes
// stripped.
func decodeSamples(samples []obs.Sample, types map[string]string) *memberData {
	md := &memberData{
		counters: map[string]float64{},
		gauges:   map[string]float64{},
		hists:    map[string]*obs.Histogram{},
	}
	accs := map[string]*histAcc{}
	acc := func(base string) *histAcc {
		h, ok := accs[base]
		if !ok {
			h = &histAcc{buckets: map[float64]int64{}}
			accs[base] = h
		}
		return h
	}
	family := func(name string) string { return strings.TrimPrefix(name, "webcache_") }
	for _, s := range samples {
		name := s.Name
		switch {
		case strings.HasSuffix(name, "_seconds_hist_bucket"):
			base := strings.TrimSuffix(name, "_bucket")
			le := math.Inf(1)
			if v := s.Label("le"); v != "+Inf" {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					continue
				}
				le = f
			}
			acc(base).buckets[le] = int64(s.Value)
		case strings.HasSuffix(name, "_seconds_hist_sum"):
			acc(strings.TrimSuffix(name, "_sum")).sum = s.Value
		case strings.HasSuffix(name, "_seconds_hist_count"):
			// total derives from the +Inf bucket
		case strings.HasSuffix(name, "_seconds_hist_min"):
			acc(strings.TrimSuffix(name, "_min")).min = s.Value
		case strings.HasSuffix(name, "_seconds_hist_max"):
			acc(strings.TrimSuffix(name, "_max")).max = s.Value
		case strings.HasSuffix(name, "_total") && types[name] == "counter":
			md.counters[family(strings.TrimSuffix(name, "_total"))] += s.Value
		case s.Label("quantile") != "":
			// summary quantile view; recomputed from buckets
		case strings.HasSuffix(name, "_seconds_sum"), strings.HasSuffix(name, "_seconds_count"):
			// timer / summary sidecars; not mergeable, skip
		default:
			md.gauges[family(name)] += s.Value
		}
	}
	for base, h := range accs {
		md.hists[family(strings.TrimSuffix(base, "_seconds_hist"))] =
			obs.RestoreHistogram(h.buckets, h.sum, h.min, h.max)
	}
	return md
}

// mergeMode picks the cross-member fold for a scalar family.
func mergeMode(fam string) string {
	switch {
	case strings.HasSuffix(fam, "_burn_fast"), strings.HasSuffix(fam, "_burn_slow"),
		strings.HasSuffix(fam, "_paging"), strings.HasSuffix(fam, "_hit_ratio"):
		return "max"
	case strings.HasSuffix(fam, "_budget_remaining"):
		return "min"
	}
	return "sum"
}

// ScrapeOnce polls every member once and rebuilds the merged view.
func (a *Aggregator) ScrapeOnce(ctx context.Context) *Snapshot {
	now := a.opts.Now()
	type result struct {
		name string
		data *memberData
		err  error
	}
	results := make(chan result, len(a.members))
	for _, m := range a.members {
		go func(m Member) {
			data, err := a.scrapeMember(ctx, m)
			results <- result{m.Name, data, err}
		}(m)
	}
	byName := map[string]result{}
	for range a.members {
		r := <-results
		byName[r.name] = r
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	for _, m := range a.members {
		st := a.state[m.Name]
		r := byName[m.Name]
		wasUp := st.up
		if r.err == nil {
			st.data, st.scrapedAt = r.data, now
			st.up, st.err = true, ""
		} else {
			st.up, st.err = false, r.err.Error()
		}
		if st.up != wasUp {
			typ := "member.up"
			if !st.up {
				typ = "member.down"
			}
			a.opts.Events.Emit(typ, map[string]string{"member": m.Name, "url": m.URL, "err": st.err})
		}
	}
	a.snap = a.merge(now)
	return a.snap
}

// merge folds the member states into a snapshot.  Caller holds a.mu.
func (a *Aggregator) merge(now time.Time) *Snapshot {
	reg := obs.NewRegistry("cluster")
	snap := &Snapshot{At: now, merged: reg}
	sums := map[string]float64{}
	mins := map[string]float64{}
	maxs := map[string]float64{}
	classes := map[string]*ClassRollup{}
	var origin float64

	for _, m := range a.members {
		st := a.state[m.Name]
		mv := MemberView{Member: st.member, Up: st.up, Err: st.err, AgeSeconds: -1}
		contributes := st.data != nil
		if !st.up {
			mv.Stale = contributes
			if contributes && now.Sub(st.scrapedAt) > staleAfter {
				contributes = false // too old to trust at all
			}
		}
		if st.data != nil {
			mv.AgeSeconds = now.Sub(st.scrapedAt).Seconds()
			mv.Requests = st.data.gauges["httpcache_proxy_requests"]
			if mv.Requests > 0 {
				mv.HitRatio = 1 - originReplies(st.data.gauges)/mv.Requests
			}
			mv.BreakerOpens = st.data.gauges["httpcache_proxy_breaker_opens"]
			mv.Objects = st.data.gauges["store_objects"]
		}
		snap.Members = append(snap.Members, mv)
		if !contributes {
			continue
		}

		for fam, v := range st.data.counters {
			sums[fam] += v
		}
		for fam, v := range st.data.gauges {
			switch mergeMode(fam) {
			case "max":
				if cur, ok := maxs[fam]; !ok || v > cur {
					maxs[fam] = v
				}
			case "min":
				if cur, ok := mins[fam]; !ok || v < cur {
					mins[fam] = v
				}
			default:
				sums[fam] += v
			}
		}
		for fam, h := range st.data.hists {
			reg.Histogram("cluster." + fam).Merge(h)
		}
		origin += originReplies(st.data.gauges)

		// Per-class SLO rollup from the member's slo_* gauges.
		for fam, v := range st.data.gauges {
			cls, metric, ok := sloFamily(fam)
			if !ok {
				continue
			}
			cr := classes[cls]
			if cr == nil {
				cr = &ClassRollup{Name: cls}
				classes[cls] = cr
			}
			switch metric {
			case "good":
				cr.Good += v
			case "bad":
				cr.Bad += v
			case "burn_fast":
				if v > cr.FastBurn {
					cr.FastBurn = v
				}
			case "burn_slow":
				if v > cr.SlowBurn {
					cr.SlowBurn = v
				}
			case "paging":
				cr.Paging = cr.Paging || v > 0
			}
		}
	}

	for fam, v := range sums {
		reg.Gauge("cluster." + fam).Set(v)
	}
	for fam, v := range maxs {
		reg.Gauge("cluster." + fam).Set(v)
	}
	for fam, v := range mins {
		reg.Gauge("cluster." + fam).Set(v)
	}

	// Cluster serving stats: every request is counted by the one member
	// it arrived at, and the origin count is by served-by label, so the
	// hit ratio is the one the requesters saw.
	snap.Requests = sums["httpcache_proxy_requests"]
	snap.OriginFetches = origin
	if snap.Requests > 0 {
		snap.HitRatio = 1 - snap.OriginFetches/snap.Requests
	}
	var up, stale float64
	for _, mv := range snap.Members {
		if mv.Up {
			up++
		}
		if mv.Stale {
			stale++
		}
	}
	reg.Gauge("cluster.members").Set(float64(len(a.members)))
	reg.Gauge("cluster.members_up").Set(up)
	reg.Gauge("cluster.members_stale").Set(stale)
	reg.Gauge("cluster.requests").Set(snap.Requests)
	reg.Gauge("cluster.origin_fetches").Set(snap.OriginFetches)
	reg.Gauge("cluster.hit_ratio").Set(snap.HitRatio)
	for _, name := range sortedClassNames(classes) {
		snap.SLO = append(snap.SLO, *classes[name])
	}
	snap.Values = reg.Values()
	return snap
}

// originReplies is a member's count of replies served from origin: its
// httpcache.proxy.origin_replies, which counts a coalesced waiter the
// way the requester saw it, or, from a member that does not publish
// that gauge, its origin_fetches.
func originReplies(gauges map[string]float64) float64 {
	if v, ok := gauges["httpcache_proxy_origin_replies"]; ok {
		return v
	}
	return gauges["httpcache_proxy_origin_fetches"]
}

// sloFamily splits an exposition family like slo_interactive_burn_fast
// into its class and metric ("interactive", "burn_fast").
func sloFamily(fam string) (class, metric string, ok bool) {
	rest, found := strings.CutPrefix(fam, "slo_")
	if !found {
		return "", "", false
	}
	for _, metric := range []string{"good", "bad", "burn_fast", "burn_slow", "budget_remaining", "paging"} {
		if cls, found := strings.CutSuffix(rest, "_"+metric); found && cls != "" {
			return cls, metric, true
		}
	}
	return "", "", false
}

func sortedClassNames(m map[string]*ClassRollup) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot returns the latest merged view (nil before the first
// scrape).
func (a *Aggregator) Snapshot() *Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.snap
}

// Start runs the scrape loop until ctx is done.
func (a *Aggregator) Start(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		a.ScrapeOnce(ctx)
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				a.ScrapeOnce(ctx)
			}
		}
	}()
}

// Handler serves the aggregated view: /cluster/metrics as Prometheus
// text and /cluster/snapshot as JSON.  A request before the first
// scrape triggers one synchronously, so the endpoints are usable
// without Start.
func (a *Aggregator) Handler() http.Handler {
	mux := http.NewServeMux()
	latest := func(r *http.Request) *Snapshot {
		if s := a.Snapshot(); s != nil {
			return s
		}
		return a.ScrapeOnce(r.Context())
	}
	mux.HandleFunc("/cluster/metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := latest(r)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WritePrometheus(w, snap.Registry())
	})
	mux.HandleFunc("/cluster/snapshot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(latest(r))
	})
	return mux
}
