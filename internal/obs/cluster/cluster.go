// Package cluster is the cluster view: one scrape of every member's
// /metrics, reduced to the hit ratio the requesters saw, each member's
// serving state, and a per-class SLO rollup.  It has two readers, and
// each calls ScrapeOnce itself: `hiergdd top` renders the snapshots as
// a dashboard, and chaos.RunLive holds the cluster hit ratio against
// the load generator's own accounting.
//
// The view reads a handful of gauges and nothing else: each member's
// httpcache.proxy.{requests,proxy_hits,client_hits,remote_hits,
// origin_replies,breaker_opens}, its store.objects, and its
// slo.<class>.{good,bad,burn.fast,burn.slow,paging}.  Requests and
// serves sum (every request arrives at one member); the hit ratio is
// the cache-tier share of the served replies, so a request that failed
// counts neither way; burn rates take the worst member, and a class
// pages if any member pages.
//
// Staleness: a member whose scrape fails keeps contributing its
// last-good gauges, flagged stale, for up to staleAfter, so one
// crashed daemon degrades the view instead of zeroing its share of
// the cluster totals.
package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
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
// get member-<i> names).  A repeated name is refused: the view keys a
// member's rows by it.
func ParseMembers(spec string) ([]Member, error) {
	var out []Member
	seen := map[string]bool{}
	for i, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		m := Member{Name: fmt.Sprintf("member-%d", i)}
		if eq := strings.IndexByte(part, '='); eq > 0 && !strings.Contains(part[:eq], "/") {
			m.Name, part = part[:eq], part[eq+1:]
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("cluster: member name %q given twice in %q", m.Name, spec)
		}
		seen[m.Name] = true
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

// staleAfter caps how long a failed member's last-good gauges keep
// contributing before they are dropped from the cluster totals; the
// member is flagged stale as soon as a scrape fails.
const staleAfter = 30 * time.Second

// The gauge families the view reads, as exposition names without the
// webcache_ prefix.
const (
	famRequests      = "httpcache_proxy_requests"
	famProxyHits     = "httpcache_proxy_proxy_hits"
	famClientHits    = "httpcache_proxy_client_hits"
	famRemoteHits    = "httpcache_proxy_remote_hits"
	famOriginReplies = "httpcache_proxy_origin_replies"
	famBreakerOpens  = "httpcache_proxy_breaker_opens"
	famObjects       = "store_objects"
)

// memberState is the aggregator's rolling view of one member.
type memberState struct {
	gauges    map[string]float64 // last good scrape; nil before one
	scrapedAt time.Time          // of gauges
	up        bool
	err       string
}

// Aggregator scrapes a fixed member set.
type Aggregator struct {
	members []Member
	client  *http.Client
	now     func() time.Time

	mu    sync.Mutex
	state []memberState // by position in members
}

// New builds an aggregator over the member set.
func New(members []Member) *Aggregator {
	return &Aggregator{
		members: members,
		client:  &http.Client{Timeout: 2 * time.Second},
		now:     time.Now,
		state:   make([]memberState, len(members)),
	}
}

// MemberView is one member's row of a snapshot.
type MemberView struct {
	Member
	Up       bool
	Stale    bool
	Err      string
	Requests float64
	HitRatio float64
	// Objects is the member's store.objects gauge: what its memory
	// cache holds.
	Objects      float64
	BreakerOpens float64
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

// Snapshot is one scrape round: the per-member rows and the cluster
// serving stats.
type Snapshot struct {
	At      time.Time
	Members []MemberView
	// Requests sums the members' requests, and OriginFetches counts the
	// replies served from origin (each member's origin_replies).
	// HitRatio is the one the requesters saw: the cache tiers' share of
	// the served replies (see hitRatio).
	Requests      float64
	OriginFetches float64
	HitRatio      float64
	// SLO is the per-class rollup, present when any member publishes
	// slo.* gauges.
	SLO []ClassRollup
}

// scrapeMember fetches one member's exposition and keeps the gauges
// the view reads.
func (a *Aggregator) scrapeMember(ctx context.Context, m Member) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", m.URL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := a.client.Do(req)
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
	gauges := map[string]float64{}
	for _, s := range samples {
		if types[s.Name] != "gauge" {
			continue
		}
		switch fam := strings.TrimPrefix(s.Name, "webcache_"); {
		case fam == famRequests, fam == famProxyHits, fam == famClientHits, fam == famRemoteHits,
			fam == famOriginReplies, fam == famBreakerOpens, fam == famObjects, strings.HasPrefix(fam, "slo_"):
			gauges[fam] = s.Value
		}
	}
	return gauges, nil
}

// ScrapeOnce polls every member once and builds the snapshot.
func (a *Aggregator) ScrapeOnce(ctx context.Context) *Snapshot {
	type result struct {
		gauges map[string]float64
		err    error
	}
	results := make([]result, len(a.members))
	var wg sync.WaitGroup
	for i, m := range a.members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := a.scrapeMember(ctx, m)
			results[i] = result{g, err}
		}()
	}
	wg.Wait()

	now := a.now()
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, r := range results {
		st := &a.state[i]
		if r.err == nil {
			st.gauges, st.scrapedAt = r.gauges, now
			st.up, st.err = true, ""
		} else {
			st.up, st.err = false, r.err.Error()
		}
	}
	return a.snapshot(now)
}

// hits sums a member's served-from-cache replies: the proxy books each
// serve under exactly one of these or origin_replies, and a request
// that failed under none.
func hits(g map[string]float64) float64 {
	return g[famProxyHits] + g[famClientHits] + g[famRemoteHits]
}

// hitRatio is the cache tiers' share of the served replies, 0 when
// nothing was served.
func hitRatio(cached, origin float64) float64 {
	if cached+origin == 0 {
		return 0
	}
	return cached / (cached + origin)
}

// snapshot folds the member states into a snapshot.  Caller holds a.mu.
func (a *Aggregator) snapshot(now time.Time) *Snapshot {
	snap := &Snapshot{At: now}
	var snapHits float64
	classes := map[string]*ClassRollup{}
	for i, m := range a.members {
		st := &a.state[i]
		g := st.gauges
		mv := MemberView{Member: m, Up: st.up, Stale: !st.up && g != nil, Err: st.err}
		if g != nil {
			mv.Requests = g[famRequests]
			mv.HitRatio = hitRatio(hits(g), g[famOriginReplies])
			mv.BreakerOpens = g[famBreakerOpens]
			mv.Objects = g[famObjects]
		}
		snap.Members = append(snap.Members, mv)
		if g == nil || !st.up && now.Sub(st.scrapedAt) > staleAfter {
			continue // never scraped, or too old to trust at all
		}

		snap.Requests += g[famRequests]
		snapHits += hits(g)
		snap.OriginFetches += g[famOriginReplies]
		for fam, v := range g {
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
				cr.FastBurn = max(cr.FastBurn, v)
			case "burn_slow":
				cr.SlowBurn = max(cr.SlowBurn, v)
			case "paging":
				cr.Paging = cr.Paging || v > 0
			}
		}
	}
	snap.HitRatio = hitRatio(snapHits, snap.OriginFetches)
	for _, cr := range classes {
		snap.SLO = append(snap.SLO, *cr)
	}
	sort.Slice(snap.SLO, func(i, j int) bool { return snap.SLO[i].Name < snap.SLO[j].Name })
	return snap
}

// sloFamily splits an exposition family like slo_interactive_burn_fast
// into its class and metric ("interactive", "burn_fast").
func sloFamily(fam string) (class, metric string, ok bool) {
	rest, found := strings.CutPrefix(fam, "slo_")
	if !found {
		return "", "", false
	}
	for _, metric := range []string{"good", "bad", "burn_fast", "burn_slow", "paging"} {
		if cls, found := strings.CutSuffix(rest, "_"+metric); found && cls != "" {
			return cls, metric, true
		}
	}
	return "", "", false
}
