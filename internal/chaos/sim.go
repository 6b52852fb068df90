package chaos

import (
	"time"

	"webcache/internal/invariant"
	"webcache/internal/loadgen"
	"webcache/internal/netmodel"
	"webcache/internal/obs"
	"webcache/internal/sim"
)

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
	FlashChurned      int   `json:"flash_churned"`
	PoisonInjected    int   `json:"poison_injected"`
	PoisonSwept       int   `json:"poison_swept"`
	ByzantineServes   int   `json:"byzantine_serves"`
	ByzantineDetected int   `json:"byzantine_detected"`
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
func simKnobs(cfg *sim.Config, scn Scenario, requests int, hardened bool) {
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
		if hardened {
			cfg.VerifyFraction = 0.95
		}
	}
	if scn.PoisonKeys > 0 {
		cfg.PoisonEvery = 500
		if hardened {
			cfg.DirSweepEvery = 250
		}
	}
}

// SimDefended reports whether simKnobs maps a defense for the scenario
// (digest verification for byzantine serves, the directory sweep for
// poisoning).  For every other scenario a defenses-on replay is the
// defenses-off replay, so the suite runs it once.
func SimDefended(scn Scenario) bool {
	return scn.ByzantineFraction > 0 || scn.PoisonKeys > 0
}

// RunSim replays scn's workload through the Hier-GD simulator at cfg's
// shape, with scn mapped onto the sim chaos knobs (and their defenses,
// where hardened and SimDefended), and reports the same degradation
// metrics as the live side.  Like the live side, it counts every
// request (no warmup discard).  check, when non-nil, threads the full
// invariant subsystem (shadow policies, directory oracles,
// conservation ledger) through the run.
func RunSim(cfg Config, scn Scenario, hardened bool, check *invariant.Checker) (*SimReport, error) {
	tr, err := cfg.Workload(scn)
	if err != nil {
		return nil, err
	}
	// A private registry carries the per-run latency histogram the
	// p999 is read from (sim.latency is cumulative on shared
	// registries, which would mix scenarios).
	reg := obs.NewRegistry("chaos-sim")
	simCfg := loadgen.LoopbackSimConfig(cfg.Proxies, cfg.CachesPerProxy, cfg.Clients, Seed)
	simCfg.Obs, simCfg.Check = reg, check
	simKnobs(&simCfg, scn, cfg.Requests, hardened)
	res, err := sim.Run(tr, simCfg)
	if err != nil {
		return nil, err
	}
	rep := &SimReport{
		Scenario:          scn.Name,
		DefensesOn:        hardened,
		Requests:          res.Requests,
		HitRatio:          1 - res.HitRatio(netmodel.SrcServer),
		MeanMs:            res.AvgLatency,
		P999Ms:            float64(reg.Histogram("sim.latency").Quantile(0.999)) / float64(time.Millisecond),
		FlashChurned:      res.FlashChurned,
		PoisonInjected:    res.PoisonInjected,
		PoisonSwept:       res.PoisonSwept,
		ByzantineServes:   res.ByzantineServes,
		ByzantineDetected: res.ByzantineDetected,
	}
	if check != nil {
		rep.Violations = check.ViolationCount()
	}
	return rep, nil
}
