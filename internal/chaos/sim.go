package chaos

import (
	"time"

	"webcache/internal/httpcache"
	"webcache/internal/invariant"
	"webcache/internal/netmodel"
	"webcache/internal/obs"
	"webcache/internal/prowgen"
	"webcache/internal/sim"
)

// SimConfig sizes the simulator-side run of a scenario.  The same
// workload shape as the live side, replayed through the Hier-GD engine
// with the scenario mapped onto the sim chaos knobs.
type SimConfig struct {
	Scenario                   Scenario
	Requests, Objects, Clients int
	Proxies, CachesPerProxy    int
	Warmup                     int
	Seed                       int64
	DefensesOn                 bool
	// Check, when non-nil, threads the full invariant subsystem
	// (shadow policies, directory oracles, conservation ledger)
	// through the run.
	Check *invariant.Checker
}

// SimReport is one simulated scenario run's outcome.  P999Ms is in
// simulator latency units observed as milliseconds (1 unit — the
// model's Ts — is 1ms), so it is comparable across sim rows, not
// against live wall-clock rows.
type SimReport struct {
	Scenario   string  `json:"scenario"`
	DefensesOn bool    `json:"defenses_on"`
	Requests   int     `json:"requests"`
	HitRatio   float64 `json:"hit_ratio"`
	MeanMs     float64 `json:"mean_ms"`
	P999Ms     float64 `json:"p999_ms"`
	// Chaos telemetry echoed from the sim result.
	FlashChurned      int `json:"flash_churned"`
	PoisonInjected    int `json:"poison_injected"`
	PoisonSwept       int `json:"poison_swept"`
	ByzantineServes   int `json:"byzantine_serves"`
	ByzantineDetected int `json:"byzantine_detected"`
	// Fleet telemetry (fleet-partition scenario; zero otherwise).
	FleetRouted       int   `json:"fleet_routed"`
	FleetRouteSkipped int   `json:"fleet_route_skipped"`
	FleetRouteFailed  int   `json:"fleet_route_failed"`
	FleetReplicas     int   `json:"fleet_replicas"`
	Violations        int64 `json:"invariant_violations"`
}

// simKnobs maps a scenario onto sim.Config's chaos fields.  The
// mapping mirrors the live adapter: slow peers become a 10x Tp2p
// stretch (the model's validator pins Tp2p strictly under Ts, so the
// sim-side damage surfaces in the mean, not the p999 — origin misses
// still own the analytic tail), churn becomes a mid-run flash
// failure, byzantine clients corrupt P2P serves (with digest-sampling
// detection as the defense), and poisoning becomes periodic bogus
// directory entries (with the periodic sweep as the defense).
func simKnobs(cfg *sim.Config, scn Scenario, requests int, defensesOn bool) {
	if scn.SlowPeerDelay > 0 {
		cfg.Net = netmodel.Default()
		cfg.Net.Tp2p *= 10
	}
	if scn.ChurnFraction > 0 {
		cfg.FlashChurnAt = requests / 2
		cfg.FlashChurnFraction = scn.ChurnFraction
	}
	if scn.ByzantineFraction > 0 {
		cfg.ByzantineFraction = scn.ByzantineFraction
		if defensesOn {
			cfg.VerifyFraction = 0.95
		}
	}
	if scn.PoisonKeys > 0 {
		cfg.PoisonEvery = 500
		cfg.PoisonBatch = 8
		if defensesOn {
			cfg.DirSweepEvery = 250
		}
	}
	if scn.FleetSize > 1 {
		cfg.FleetSize = scn.FleetSize
		cfg.FleetReplication = scn.FleetReplication
		if scn.FleetPartition {
			// Same midpoint the live adapter's partition timer uses.
			cfg.FleetPartitionAt = requests / 2
		}
	} else {
		// The live side's cooperating proxies ask each other on digests
		// pulled every DigestEvery of their own requests (DESIGN.md §9).
		cfg.DigestInterval = httpcache.DigestEvery * cfg.NumProxies
	}
}

// RunSim replays the scenario through the simulator and reports the
// same degradation metrics as the live side.
func RunSim(cfg SimConfig) (*SimReport, error) {
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
	// A fleet scenario dictates its own proxy count, same as the live
	// side: the ring is the topology.
	if cfg.Scenario.FleetSize > 1 {
		cfg.Proxies = cfg.Scenario.FleetSize
	}
	// A private registry carries the per-run latency histogram the
	// p999 is read from (sim.latency is cumulative on shared
	// registries, which would mix scenarios).
	reg := obs.NewRegistry("chaos-sim")
	simCfg := sim.Config{
		Scheme:            sim.HierGD,
		NumProxies:        cfg.Proxies,
		ClientsPerCluster: (cfg.Clients + cfg.Proxies - 1) / cfg.Proxies,
		P2PClientCaches:   cfg.CachesPerProxy,
		ProxyCacheFrac:    0.05,
		ClientCacheFrac:   0.005,
		WarmupRequests:    cfg.Warmup,
		Seed:              cfg.Seed,
		Obs:               reg,
		Check:             cfg.Check,
	}
	simKnobs(&simCfg, cfg.Scenario, cfg.Requests, cfg.DefensesOn)
	res, err := sim.Run(tr, simCfg)
	if err != nil {
		return nil, err
	}
	rep := &SimReport{
		Scenario:          cfg.Scenario.Name,
		DefensesOn:        cfg.DefensesOn,
		Requests:          res.Requests,
		HitRatio:          1 - res.HitRatio(netmodel.SrcServer),
		MeanMs:            res.AvgLatency,
		P999Ms:            float64(reg.Histogram("sim.latency").Quantile(0.999)) / float64(time.Millisecond),
		FlashChurned:      res.FlashChurned,
		PoisonInjected:    res.PoisonInjected,
		PoisonSwept:       res.PoisonSwept,
		ByzantineServes:   res.ByzantineServes,
		ByzantineDetected: res.ByzantineDetected,
		FleetRouted:       res.FleetRouted,
		FleetRouteSkipped: res.FleetRouteSkipped,
		FleetRouteFailed:  res.FleetRouteFailed,
		FleetReplicas:     res.FleetReplicas,
	}
	if cfg.Check != nil {
		rep.Violations = cfg.Check.ViolationCount()
	}
	return rep, nil
}
