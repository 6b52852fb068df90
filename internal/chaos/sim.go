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

// SimDefended reports whether the simulator models a defense for one
// of the scenario's faults (digest sampling against byzantine serves,
// the directory sweep against poisoning).  For every other scenario a
// hardened replay is the plain replay, so the suite runs it once.
func SimDefended(scn Scenario) bool { return scn.Byzantine || scn.Poison }

// RunSim replays scn's workload through the Hier-GD simulator at cfg's
// shape, with scn's faults (and, hardened, their defenses) set, and
// reports the same degradation metrics as the live side.  Slow peers
// become a 10x Tp2p stretch: the model's validator pins Tp2p strictly
// under Ts, so the damage surfaces in the mean, not the p999, as
// origin misses still own the analytic tail.  Like the live side, it
// counts every request (no warmup discard).  check, when non-nil,
// threads the full invariant subsystem (shadow policies, directory
// oracles, conservation ledger) through the run.
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
	simCfg.Faults, simCfg.Hardened = scn.Faults, hardened
	if scn.SlowPeers {
		simCfg.Net = netmodel.Default()
		simCfg.Net.Tp2p *= 10
	}
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
