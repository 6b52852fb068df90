package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"slices"
	"time"

	"webcache/internal/httpcache"
	"webcache/internal/invariant"
	"webcache/internal/loadgen"
	"webcache/internal/obs"
	"webcache/internal/obs/cluster"
	"webcache/internal/obs/slo"
	"webcache/internal/pastry"
	"webcache/internal/trace"
)

// The two SLO classes every live run's requests are tagged with (every
// third client is batch).  Each proxy scores them server-side, and the
// cluster aggregator rolls them up after the drive.
var (
	Interactive = slo.Class{Name: "interactive", Latency: 100 * time.Millisecond, Availability: 0.99, Window: 30 * time.Second}
	Batch       = slo.Class{Name: "batch", Latency: time.Second, Availability: 0.9, Window: 30 * time.Second}
)

// MaxClusterDelta bounds |ClusterHit - HitRatio|: the aggregator's
// merged server-side counters must tell the same story as the driver.
// Both count the served replies by their X-Served-By label, so they
// agree exactly.
// MaxDefensePrice bounds every replicate's DefensePrice on slow-peer:
// the deadlines and sweeps may cost at most this much live hit ratio
// for the tail they cut.
// MinP999Cut is the floor on every replicate's P999Cut on slow-peer:
// the defenses must cut the live p999 by at least this factor.
const (
	MaxClusterDelta = 0.001
	MaxDefensePrice = 0.05
	MinP999Cut      = 1.3
)

// LiveReport is one live scenario run's outcome.  Every request counts
// (no warmup discard), so the driver's HitRatio and the aggregator's
// ClusterHit account for the same population.
type LiveReport struct {
	Scenario   string  `json:"scenario"`
	DefensesOn bool    `json:"defenses_on"`
	Requests   int     `json:"requests"`
	Errors     int     `json:"errors"`
	HitRatio   float64 `json:"hit_ratio"`
	P99Ms      float64 `json:"p99_ms"`
	P999Ms     float64 `json:"p999_ms"`
	// ClusterHit is the aggregator's deduplicated hit ratio from one
	// scrape of every member's /metrics after the drive; MembersUp of
	// Members answered it.  SLO is its per-class rollup (worst member's
	// burn rates).
	ClusterHit float64                `json:"cluster_hit_ratio"`
	Members    int                    `json:"members"`
	MembersUp  int                    `json:"members_up"`
	SLO        []cluster.ClassRollup  `json:"slo"`
	Defense    httpcache.DefenseStats `json:"defense"`
	Churned    int                    `json:"churned_caches"`
	Violations int64                  `json:"invariant_violations"`
}

// FastBurn is the named class's fast-window burn rate in the rollup
// (0 when the class saw no traffic).
func (r *LiveReport) FastBurn(class string) float64 {
	for _, c := range r.SLO {
		if c.Name == class {
			return c.FastBurn
		}
	}
	return 0
}

// CheckCluster fails unless every member answered the scrape and the
// aggregator's hit ratio agrees with the driver's within
// MaxClusterDelta.
func (r *LiveReport) CheckCluster() error {
	if r.MembersUp != r.Members {
		return fmt.Errorf("aggregator saw %d/%d members up", r.MembersUp, r.Members)
	}
	if d := r.ClusterHit - r.HitRatio; math.Abs(d) > MaxClusterDelta {
		return fmt.Errorf("aggregator hit ratio %.4f vs loadgen %.4f: |delta| %.4f > %.3f",
			r.ClusterHit, r.HitRatio, math.Abs(d), MaxClusterDelta)
	}
	return nil
}

// RunLive stands cfg's topology up behind scn's fault adapter, its
// proxies hardened (httpcache.Options.Hardened) or not, drives the
// workload open-loop, and reports hit ratio, p999 and defense activity.
// A non-nil check is attached to every proxy, and its violations are
// reported too.
func RunLive(cfg Config, scn Scenario, hardened bool, check *invariant.Checker) (*LiveReport, error) {
	tr, err := cfg.Workload(scn)
	if err != nil {
		return nil, err
	}
	simCfg := loadgen.LoopbackSimConfig(cfg.Proxies, cfg.CachesPerProxy, cfg.Clients, Seed)
	proxyCap, clientCap := simCfg.CapacityPlan(tr)

	inj := NewInjector(scn, cfg.CachesPerProxy, cfg.Registry)
	topo, err := loadgen.StartLoopback(loadgen.TopologyConfig{
		Proxies:            cfg.Proxies,
		CachesPerProxy:     cfg.CachesPerProxy,
		ProxyCapacityBytes: loadgen.UnitsToBytes(proxyCap, cfg.ObjectBytes),
		CacheCapacityBytes: loadgen.UnitsToBytes(clientCap, cfg.ObjectBytes),
		ObjectBytes:        cfg.ObjectBytes,
		Hardened:           hardened,
		Check:              check,
		WrapProxy:          inj.WrapProxy,
		WrapCache:          inj.WrapCache,
		MetricsPerDaemon:   true,
		SLOClasses:         []slo.Class{Interactive, Batch},
	})
	if err != nil {
		return nil, err
	}
	defer topo.Stop()

	rep := &LiveReport{Scenario: scn.Name, DefensesOn: hardened}

	// Directory poisoning, as an attacker would try it: the keys of
	// upcoming objects nobody holds, listed in a /register body.
	if scn.Poison {
		if err := poison(topo, poisonKeys(tr, topo.OriginURL, poisonKeyCount)); err != nil {
			return nil, err
		}
	}

	// Mass churn: flash-disconnect mid-run (half the expected drive
	// time at the configured Poisson rate).
	var churnTimer *time.Timer
	if scn.Churn {
		after := time.Duration(float64(cfg.Requests) / cfg.Rate / 2 * float64(time.Second))
		churnTimer = time.AfterFunc(after, func() { topo.FlashDisconnect(churnFraction, Seed) })
		defer churnTimer.Stop()
	}

	sched, err := loadgen.BuildSchedule(tr, topo.ProxyURLs, topo.OriginURL, simCfg.ProxyFor)
	if err != nil {
		return nil, err
	}
	// A flash-crowd scenario surges: ON/OFF windows at the configured
	// rate as the peak, so the churn storm lands under load spikes
	// instead of a smooth Poisson stream.
	var arrival loadgen.Arrival
	if scn.FlashCrowd {
		arrival, err = loadgen.NewBursty(cfg.Rate, 500*time.Millisecond, 250*time.Millisecond, Seed)
	} else {
		arrival, err = loadgen.NewPoisson(cfg.Rate, Seed)
	}
	if err != nil {
		return nil, err
	}
	// The drive gets a private registry: loadgen.latency is a registry
	// histogram, so sharing cfg.Registry across the suite's runs would
	// pollute every later run's p999 with every earlier run's tail.
	tgt := loadgen.NewHTTPTarget()
	res, err := loadgen.Run(context.Background(), sched, tgt, loadgen.Options{
		Mode:    loadgen.OpenLoop,
		Arrival: arrival,
		Obs:     obs.NewRegistry("chaos-live"),
		ClassFor: func(r loadgen.ScheduledRequest) string {
			if r.Client%3 == 0 {
				return Batch.Name
			}
			return Interactive.Name
		},
	})
	tgt.CloseIdleConnections() // before the topology drains
	if err != nil {
		return nil, err
	}

	// One sweep pass so contribution condemnation (and dead-daemon
	// eviction after churn) lands inside the run's report.  Under
	// launder each slow daemon registers again first; hardened, every
	// one held long enough to be condemned must still be.
	condemnable := 0
	for p, px := range topo.Proxies {
		var held map[string]int64
		if scn.Launder {
			if held, err = launder(topo, p, inj); err != nil {
				return nil, err
			}
		}
		removed := px.SweepClientCaches()
		for addr, n := range held {
			if !hardened || n < strikeBudget {
				continue
			}
			condemnable++
			if !slices.Contains(removed, addr) {
				return nil, fmt.Errorf("chaos: launder: daemon %s held %d requests past the deadline, registered again and escaped the sweep at proxy %d", addr, n, p)
			}
		}
	}
	if scn.Launder && hardened && condemnable == 0 {
		return nil, fmt.Errorf("chaos: launder: no slow daemon held %d requests, so the sweep was not tested", strikeBudget)
	}
	if scn.Churn {
		var all int
		for _, addrs := range topo.CacheAddrs {
			all += len(addrs)
		}
		rep.Churned = int(float64(all)*churnFraction + 0.5)
	}

	rep.Requests = res.Measured
	rep.Errors = res.Errors
	rep.HitRatio = res.AggregateHitRatio()
	rep.P99Ms = float64(res.Overall.Quantile(0.99)) / float64(time.Millisecond)
	rep.P999Ms = float64(res.Overall.Quantile(0.999)) / float64(time.Millisecond)
	for p := range topo.Proxies {
		st, err := topo.ProxyStats(p)
		if err != nil {
			return nil, err
		}
		rep.Defense.Add(st.Defense)
	}
	for _, px := range topo.Proxies {
		px.ReconcileAccounting()
	}

	// The cluster view `hiergdd top` renders: scrape every member's
	// /metrics over HTTP and sum.
	members := make([]cluster.Member, len(topo.ProxyURLs))
	for i, u := range topo.ProxyURLs {
		members[i] = cluster.Member{Name: fmt.Sprintf("member-%d", i), URL: u}
	}
	snap := cluster.New(members).ScrapeOnce(context.Background())
	rep.ClusterHit = snap.HitRatio
	rep.Members = len(members)
	rep.SLO = snap.SLO
	for _, m := range snap.Members {
		if m.Up {
			rep.MembersUp++
		}
	}
	if check != nil {
		rep.Violations = check.ViolationCount()
	}
	return rep, nil
}

// poison re-registers each proxy's first daemon with keys listed in the
// /register body.  A registration lists nothing, so it fails if any
// proxy's directory grew; and it fails if a proxy refused the
// registration, since a refused one tests nothing.
func poison(topo *loadgen.Topology, keys []string) error {
	body, _ := json.Marshal(map[string][]string{"recovered": keys}) // a []string always marshals
	for p, u := range topo.ProxyURLs {
		if len(topo.CacheAddrs[p]) == 0 {
			continue
		}
		before, err := topo.ProxyStats(p)
		if err != nil {
			return err
		}
		resp, err := http.Post(u+"/register?addr="+url.QueryEscape(topo.CacheAddrs[p][0]), "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("chaos: poisoning: %w", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("chaos: poisoning: proxy %d answered the /register with %s, so no registration was tried", p, resp.Status)
		}
		after, err := topo.ProxyStats(p)
		if err != nil {
			return err
		}
		if grew := after.DirEntries - before.DirEntries; grew != 0 {
			return fmt.Errorf("chaos: poisoning: a /register key list planted %d directory entries at proxy %d", grew, p)
		}
	}
	return nil
}

// launder registers each of proxy p's slow daemons again, as a daemon
// would to shed its strikes, and returns how many requests each held.
func launder(topo *loadgen.Topology, p int, inj *Injector) (map[string]int64, error) {
	held := make(map[string]int64)
	for i, addr := range topo.CacheAddrs[p] {
		n, ok := inj.stalls[[2]int{p, i}]
		if !ok {
			continue
		}
		if err := httpcache.Register(topo.ProxyURLs[p], addr); err != nil {
			return nil, fmt.Errorf("chaos: launder: %w", err)
		}
		held[addr] = n.Load()
	}
	return held, nil
}

// poisonKeys derives the directory keys of the first n distinct
// upcoming objects — keys real requests will actually probe.
func poisonKeys(tr *trace.Trace, originURL string, n int) []string {
	seen := make(map[trace.ObjectID]bool)
	var keys []string
	for _, r := range tr.Requests {
		if seen[r.Object] {
			continue
		}
		seen[r.Object] = true
		keys = append(keys, pastry.HashString(fmt.Sprintf("%s/obj/%d", originURL, r.Object)).String())
		if len(keys) >= n {
			break
		}
	}
	return keys
}
