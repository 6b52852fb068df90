package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"webcache/internal/httpcache"
	"webcache/internal/invariant"
	"webcache/internal/loadgen"
	"webcache/internal/obs"
	"webcache/internal/obs/slo"
	"webcache/internal/pastry"
	"webcache/internal/prowgen"
	"webcache/internal/sim"
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
	Warmup                     int
	Seed                       int64
	// Topology.
	Proxies, CachesPerProxy int
	// DefensesOn runs the hardened proxy (short per-hop deadlines,
	// digest sampling, breakers); off runs the pre-defense defaults.
	DefensesOn bool
	// SLOClass, when named, attaches a driver-side slo.Tracker to the
	// run: every measured request is scored against the class's latency
	// objective and the report carries the end-of-run burn rates, so
	// the suite can show each defense's error-budget effect.
	SLOClass slo.Class
	// Check, when non-nil, attaches the conservation accountant to
	// every proxy and counts violations into the report.
	Check *invariant.Checker
	// Registry, when non-nil, receives chaos.* and loadgen.* metrics.
	Registry *obs.Registry
	// Timeout is the per-request client timeout (default 10s).
	Timeout time.Duration
}

// LiveReport is one live scenario run's outcome.
type LiveReport struct {
	Scenario   string  `json:"scenario"`
	DefensesOn bool    `json:"defenses_on"`
	Requests   int     `json:"requests"`
	Errors     int     `json:"errors"`
	HitRatio   float64 `json:"hit_ratio"`
	P999Ms     float64 `json:"p999_ms"`
	// FastBurn / SlowBurn are the end-of-run error-budget burn rates
	// against LiveConfig.SLOClass (zero when no class was configured).
	FastBurn float64                `json:"fast_burn"`
	SlowBurn float64                `json:"slow_burn"`
	Defense  httpcache.DefenseStats `json:"defense"`
	// Fleet aggregates every member's fleet counters (fleet-partition
	// scenario; zero when the topology runs the cooperating mesh).
	Fleet      httpcache.FleetStats `json:"fleet"`
	Churned    int                  `json:"churned_caches"`
	Poisoned   int                  `json:"poisoned_keys"`
	Violations int64                `json:"invariant_violations"`
}

// Hardened is the defenses-on tuning for loopback chaos runs: per-hop
// deadlines far under the injected 250ms stall, tightened from the
// observed p99, a digest check on every second client serve, and a
// fast breaker so degradation to origin happens within the run.  The
// SLO bench reuses it so its defenses-on cell runs the same posture
// the chaos suite gates on.
func Hardened() *httpcache.Defenses {
	return &httpcache.Defenses{
		PeerTimeout:         75 * time.Millisecond,
		AdaptivePeerTimeout: true,
		VerifyEvery:         2,
		BreakerFailures:     3,
		BreakerCooldown:     500 * time.Millisecond,
		PushTimeout:         time.Second,
	}
}

// RunLive stands the topology up behind the scenario's fault adapter,
// drives the workload, and reports hit ratio, p999, defense activity,
// and accountant violations.
func RunLive(cfg LiveConfig) (*LiveReport, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	// A fleet scenario dictates its own proxy count: the ring IS the
	// topology, so the configured Proxies yields to FleetSize.
	if cfg.Scenario.FleetSize > 1 {
		cfg.Proxies = cfg.Scenario.FleetSize
	}
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
	simCfg := sim.Config{
		Scheme:            sim.HierGD,
		NumProxies:        cfg.Proxies,
		ClientsPerCluster: (cfg.Clients + cfg.Proxies - 1) / cfg.Proxies,
		P2PClientCaches:   cfg.CachesPerProxy,
		ProxyCacheFrac:    0.05,
		ClientCacheFrac:   0.005,
		Seed:              cfg.Seed,
	}
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
		Fleet:              cfg.Scenario.FleetSize > 1,
		FleetReplication:   cfg.Scenario.FleetReplication,
		FleetHotAfter:      8,
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

	// Directory poisoning: re-register each proxy's first daemon with a
	// fabricated "recovered" key list covering upcoming objects nobody
	// holds, so real requests pay the wasted LAN probes.
	if cfg.Scenario.PoisonKeys > 0 {
		keys := poisonKeys(tr, topo.OriginURL, cfg.Scenario.PoisonKeys)
		for p, u := range topo.ProxyURLs {
			if len(topo.CacheAddrs[p]) == 0 {
				continue
			}
			blob, _ := json.Marshal(map[string][]string{"recovered": keys})
			resp, err := http.Post(fmt.Sprintf("%s/register?addr=%s", u, topo.CacheAddrs[p][0]),
				"application/json", bytes.NewReader(blob))
			if err != nil {
				return nil, fmt.Errorf("chaos: poisoning %s: %w", u, err)
			}
			resp.Body.Close()
			rep.Poisoned += len(keys)
		}
		cfg.Registry.Counter("chaos.poisoned_keys").Add(int64(rep.Poisoned))
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

	// Mid-run partition: the victim member's fleet-internal endpoints
	// start answering 503 halfway through the drive (same midpoint the
	// churn storm uses), so the healthy members' breakers get live
	// traffic both before and after the cut.
	var partitionTimer *time.Timer
	if cfg.Scenario.FleetPartition {
		after := time.Duration(float64(cfg.Requests) / cfg.Rate / 2 * float64(time.Second))
		partitionTimer = time.AfterFunc(after, inj.StartPartition)
		defer partitionTimer.Stop()
	}

	// Fleet runs front requests at the client's home proxy too — NOT at
	// the object's ring members (that ring-aware balancer is
	// loadgen.BuildScheduleFleet, the fleet bench's front): chaos wants
	// the proxy-miss -> owner hop and its partition fallback exercised,
	// which a holder-fronted schedule would route around entirely.
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
	var sloTracker *slo.Tracker
	if cfg.SLOClass.Name != "" {
		sloTracker = slo.NewTracker(nil, []slo.Class{cfg.SLOClass}, slo.DefaultThresholds)
	}
	tgt := loadgen.NewHTTPTarget(cfg.Timeout)
	res, err := loadgen.Run(context.Background(), sched, tgt, loadgen.Options{
		Mode:    loadgen.OpenLoop,
		Arrival: arrival,
		Warmup:  cfg.Warmup,
		Obs:     obs.NewRegistry("chaos-live"),
		SLO:     sloTracker,
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
	if sloTracker != nil {
		if reports := sloTracker.Report(); len(reports) > 0 {
			rep.FastBurn = reports[0].FastBurn
			rep.SlowBurn = reports[0].SlowBurn
		}
	}
	for p := range topo.Proxies {
		st, err := topo.ProxyStats(p)
		if err != nil {
			return nil, err
		}
		rep.Defense.Add(st.Defense)
		rep.Fleet.Add(st.Fleet)
	}
	for _, px := range topo.Proxies {
		px.ReconcileAccounting()
	}
	if cfg.Check != nil {
		rep.Violations = cfg.Check.ViolationCount()
	}
	return rep, nil
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
