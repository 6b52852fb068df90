// Package chaos is the fault-injection layer of the adversarial
// scenario suite (DESIGN.md §11): a shared scenario vocabulary that
// runs against both the live loopback topology (internal/loadgen +
// internal/httpcache, via handler-wrapping fault adapters) and the
// simulator (internal/sim's chaos knobs), reporting hit-ratio
// degradation and tail latency (p999) per scenario with and without
// the httpcache defenses.  invariant.ClusterAccountant rides along as
// the oracle that no attack — and no defense — breaks cache
// conservation.
package chaos

import (
	"fmt"
	"time"

	"webcache/internal/obs"
	"webcache/internal/prowgen"
	"webcache/internal/trace"
)

// Config is the workload and topology shape every run of the suite
// shares, live and simulated.  Which scenario runs, with the defenses
// off or on, and the checker attached are each run's own arguments
// (RunLive, RunSim).
type Config struct {
	// The ProWGen workload (Workload).
	Requests, Objects, Clients int
	// ObjectBytes is the origin body size per object and Rate the
	// open-loop arrival rate (a flash crowd's peak); the simulator reads
	// neither.
	ObjectBytes int
	Rate        float64
	// The topology: cooperating proxies, each with CachesPerProxy
	// client caches (the simulator's clusters are sized alike).
	Proxies, CachesPerProxy int
	// Registry, when non-nil, receives the live runs' chaos.* metrics.
	Registry *obs.Registry
}

// Seed seeds every run's workload, arrival process and churn.
const Seed = 1

// Workload generates the scenario's ProWGen trace at cfg's shape: a
// scenario's FlashAlpha, when set, overrides the Zipf exponent.
func (cfg Config) Workload(scn Scenario) (*trace.Trace, error) {
	return prowgen.Generate(prowgen.Config{
		NumRequests: cfg.Requests,
		NumObjects:  cfg.Objects,
		NumClients:  cfg.Clients,
		Alpha:       scn.FlashAlpha, // 0 = prowgen default
		Seed:        Seed,
	})
}

// Scenario names one attack shape in terms both sides understand.
// Zero-valued fields mean that fault is absent from the scenario.
type Scenario struct {
	Name        string
	Description string
	// SlowPeerDelay holds SlowPeerFraction of each proxy's client-cache
	// daemons (and every proxy's /peer-lookup) for this long per
	// request — the slow-peer tail-amplification attack.
	SlowPeerDelay    time.Duration
	SlowPeerFraction float64
	// ChurnFraction flash-disconnects this fraction of the client-cache
	// overlay mid-run — the mass-churn storm.
	ChurnFraction float64
	// FlashAlpha, when > 0, overrides the workload's Zipf exponent on
	// both sides: a flash crowd concentrates demand on a few suddenly
	// hot objects, which a steeper popularity skew models.  Bursty
	// additionally drives the live side with the ON/OFF arrival
	// process instead of Poisson, so the crowd arrives in surges.
	FlashAlpha float64
	Bursty     bool
	// ByzantineFraction turns this fraction of each proxy's daemons
	// byzantine: alternating corrupt-servers (bodies bit-flipped on the
	// way out) and receipt-fabricators (claim "stored" without
	// storing).
	ByzantineFraction float64
	// PoisonKeys is the directory-poisoning attack: this many keys of
	// real upcoming objects the cluster does not hold, which the live
	// side lists in a /register body to each proxy before the run (and
	// fails if any lands in a directory) and the simulator plants.
	PoisonKeys int
}

// Scenarios is the suite: every entry runs live and simulated, with
// defenses off and on, under make chaos-bench.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:        "baseline",
			Description: "no faults injected — the control row",
		},
		{
			Name:             "slow-peer",
			Description:      "a third of each proxy's daemons answer 250ms late; peer lookups stall too",
			SlowPeerDelay:    250 * time.Millisecond,
			SlowPeerFraction: 0.34,
		},
		{
			Name:          "flash-churn",
			Description:   "half the client-cache overlay disconnects at once mid-run",
			ChurnFraction: 0.5,
		},
		{
			Name: "churn-during-flash-crowd",
			Description: "half the overlay disconnects at the peak of a flash crowd " +
				"(steep popularity skew, surged arrivals)",
			ChurnFraction: 0.5,
			FlashAlpha:    1.1,
			Bursty:        true,
		},
		{
			Name:              "byzantine",
			Description:       "half the daemons lie: corrupted bodies and fabricated store receipts",
			ByzantineFraction: 0.5,
		},
		{
			Name:        "poison",
			Description: "bogus directory entries for objects the cluster does not hold: refused live, planted in the simulator",
			PoisonKeys:  64,
		},
	}
}

// Lookup resolves a scenario by name.
func Lookup(name string) (Scenario, error) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("chaos: unknown scenario %q", name)
}
