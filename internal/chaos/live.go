package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"time"

	"webcache/internal/httpcache"
	"webcache/internal/invariant"
	"webcache/internal/loadgen"
	"webcache/internal/obs"
	"webcache/internal/obs/cluster"
	"webcache/internal/obs/slo"
	"webcache/internal/pastry"
	"webcache/internal/prowgen"
	"webcache/internal/trace"
)

// LiveConfig sizes one live scenario run: a loopback topology driven
// open-loop (Poisson) through the fault adapter, with the defenses on
// or off.
type LiveConfig struct {
	Scenario Scenario
	// Workload (ProWGen) and drive.
	Requests, Objects, Clients int
	ObjectBytes                int
	Rate                       float64
	Seed                       int64
	// Topology.
	Proxies, CachesPerProxy int
	// DefensesOn runs the hardened proxy (short per-hop deadlines,
	// digest sampling, breakers); off runs the pre-defense defaults.
	DefensesOn bool
	// Check, when non-nil, attaches the conservation accountant to
	// every proxy and counts violations into the report.
	Check *invariant.Checker
	// Registry, when non-nil, receives chaos.* and loadgen.* metrics.
	Registry *obs.Registry
}

// requestTimeout is a live run's per-request client timeout.
const requestTimeout = 10 * time.Second

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
// MaxDefensePrice bounds Row.DefensePrice on slow-peer: the deadlines
// and sweeps may cost at most this much live hit ratio for the tail
// they cut.
// MinP999Cut is the floor on Row.P999Cut on slow-peer: the defenses
// must cut the live p999 by at least this factor.
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

// Hardened is the defenses-on tuning for loopback chaos runs: per-hop
// deadlines far under the injected 250ms stall, tightened from the
// observed p99, a digest check on every second client serve, and a
// fast breaker so degradation to origin happens within the run.
func Hardened() *httpcache.Defenses {
	return &httpcache.Defenses{
		PeerTimeout:         75 * time.Millisecond,
		AdaptivePeerTimeout: true,
		VerifyEvery:         2,
		BreakerFailures:     3,
		BreakerCooldown:     500 * time.Millisecond,
	}
}

// RunLive stands the topology up behind the scenario's fault adapter,
// drives the workload, and reports hit ratio, p999, defense activity,
// and accountant violations.
func RunLive(cfg LiveConfig) (*LiveReport, error) {
	tr, err := prowgen.Generate(prowgen.Config{
		NumRequests: cfg.Requests,
		NumObjects:  cfg.Objects,
		NumClients:  cfg.Clients,
		Alpha:       cfg.Scenario.FlashAlpha, // 0 = prowgen default
		Seed:        cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	simCfg := loadgen.LoopbackSimConfig(cfg.Proxies, cfg.CachesPerProxy, cfg.Clients, cfg.Seed)
	proxyCap, clientCap := simCfg.CapacityPlan(tr)
	toBytes := func(units []uint64) []uint64 {
		out := make([]uint64, len(units))
		for i, u := range units {
			out[i] = u * uint64(cfg.ObjectBytes)
		}
		return out
	}

	inj := NewInjector(cfg.Scenario, cfg.CachesPerProxy, cfg.Registry)
	var defenses *httpcache.Defenses
	if cfg.DefensesOn {
		defenses = Hardened()
	}
	topo, err := loadgen.StartLoopback(loadgen.TopologyConfig{
		Proxies:            cfg.Proxies,
		CachesPerProxy:     cfg.CachesPerProxy,
		ProxyCapacityBytes: toBytes(proxyCap),
		CacheCapacityBytes: toBytes(clientCap),
		ObjectBytes:        cfg.ObjectBytes,
		Defenses:           defenses,
		Check:              cfg.Check,
		WrapProxy:          inj.WrapProxy,
		WrapCache:          inj.WrapCache,
		MetricsPerDaemon:   true,
		SLOClasses:         []slo.Class{Interactive, Batch},
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		topo.Close(ctx)
	}()

	rep := &LiveReport{Scenario: cfg.Scenario.Name, DefensesOn: cfg.DefensesOn}

	// Directory poisoning, as an attacker would try it: the keys of
	// upcoming objects nobody holds, listed in a /register body.
	if cfg.Scenario.PoisonKeys > 0 {
		if err := poison(topo, poisonKeys(tr, topo.OriginURL, cfg.Scenario.PoisonKeys)); err != nil {
			return nil, err
		}
	}

	// Mass churn: flash-disconnect mid-run (half the expected drive
	// time at the configured Poisson rate).
	var churnTimer *time.Timer
	if cfg.Scenario.ChurnFraction > 0 {
		after := time.Duration(float64(cfg.Requests) / cfg.Rate / 2 * float64(time.Second))
		churnTimer = time.AfterFunc(after, func() {
			downed := topo.FlashDisconnect(cfg.Scenario.ChurnFraction, cfg.Seed)
			cfg.Registry.Counter("chaos.churned_caches").Add(int64(len(downed)))
		})
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
	if cfg.Scenario.Bursty {
		arrival, err = loadgen.NewBursty(cfg.Rate, 500*time.Millisecond, 250*time.Millisecond, cfg.Seed)
	} else {
		arrival, err = loadgen.NewPoisson(cfg.Rate, cfg.Seed)
	}
	if err != nil {
		return nil, err
	}
	// The drive gets a private registry: loadgen.latency is a registry
	// histogram, so sharing cfg.Registry across the suite's runs would
	// pollute every later run's p999 with every earlier run's tail.
	tgt := loadgen.NewHTTPTarget(requestTimeout)
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
	tgt.CloseIdleConnections() // pre-dialed pool conns would stall the drain
	if err != nil {
		return nil, err
	}

	// One sweep pass so contribution condemnation (and dead-daemon
	// eviction after churn) lands inside the run's report.
	for _, px := range topo.Proxies {
		px.SweepClientCaches()
	}
	if cfg.Scenario.ChurnFraction > 0 {
		var all int
		for _, addrs := range topo.CacheAddrs {
			all += len(addrs)
		}
		rep.Churned = int(float64(all)*cfg.Scenario.ChurnFraction + 0.5)
	}

	rep.Requests = res.Measured
	rep.Errors = res.Errors
	rep.HitRatio = res.AggregateHitRatio()
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
	if cfg.Check != nil {
		rep.Violations = cfg.Check.ViolationCount()
	}
	return rep, nil
}

// poison re-registers each proxy's first daemon with keys listed in the
// /register body.  A registration lists nothing, so it fails if any
// proxy's directory grew.
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
