// Package chaos is the fault-injection layer of the adversarial
// scenario suite (DESIGN.md §11): a shared scenario vocabulary that
// runs against both the live loopback topology (internal/loadgen +
// internal/httpcache, via handler-wrapping fault adapters) and the
// simulator (internal/sim's Faults), reporting hit-ratio
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
	"webcache/internal/sim"
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
// flash crowd's flashAlpha overrides the Zipf exponent.
func (cfg Config) Workload(scn Scenario) (*trace.Trace, error) {
	alpha := 0.0 // prowgen default
	if scn.FlashCrowd {
		alpha = flashAlpha
	}
	return prowgen.Generate(prowgen.Config{
		NumRequests: cfg.Requests,
		NumObjects:  cfg.Objects,
		NumClients:  cfg.Clients,
		Alpha:       alpha,
		Seed:        Seed,
	})
}

// The faults' magnitudes, one value each.  Churn and byzantine daemons
// take the simulator's fractions, so both halves run the same attack.
const (
	slowPeerDelay     = 250 * time.Millisecond // a slow daemon's hold per request
	slowPeerFraction  = 0.34                   // of each proxy's daemons are slow
	churnFraction     = sim.ChurnFraction      // of the overlay disconnects mid-run
	flashAlpha        = 1.1                    // a flash crowd's Zipf exponent
	byzantineFraction = sim.ByzantineFraction  // of each proxy's daemons lie
	poisonKeyCount    = 64                     // keys in the poisoning /register body
)

// Scenario names one attack shape in terms both sides understand: a
// set of faults, each absent unless set.
type Scenario struct {
	Name        string
	Description string
	// SlowPeers holds slowPeerFraction of each proxy's client-cache
	// daemons (and every proxy's /peer-lookup) for slowPeerDelay per
	// request, the slow-peer tail-amplification attack; the simulator
	// stretches Tp2p instead.
	SlowPeers bool
	// FlashCrowd steepens the workload's popularity skew to flashAlpha
	// on both sides, concentrating demand on a few suddenly hot
	// objects, and drives the live side with the ON/OFF arrival process
	// instead of Poisson, so the crowd arrives in surges.
	FlashCrowd bool
	// The faults the simulator models too.  Live, Churn
	// flash-disconnects churnFraction of the client-cache overlay
	// mid-run; Byzantine turns byzantineFraction of each proxy's
	// daemons into alternating corrupt-servers (bodies bit-flipped on
	// the way out) and receipt-fabricators (claim "stored" without
	// storing); Poison lists the keys of poisonKeyCount real upcoming
	// objects the cluster does not hold in a /register body to each
	// proxy before the run, and fails if any lands in a directory.
	sim.Faults
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
			Name: "slow-peer",
			Description: fmt.Sprintf("%s of each proxy's daemons answer %v late; peer lookups stall too",
				percent(slowPeerFraction), slowPeerDelay),
			SlowPeers: true,
		},
		{
			Name:        "flash-churn",
			Description: percent(churnFraction) + " of the client-cache overlay disconnects at once mid-run",
			Faults:      sim.Faults{Churn: true},
		},
		{
			Name: "churn-during-flash-crowd",
			Description: percent(churnFraction) + " of the overlay disconnects at the peak of a flash crowd " +
				"(steep popularity skew, surged arrivals)",
			FlashCrowd: true,
			Faults:     sim.Faults{Churn: true},
		},
		{
			Name:        "byzantine",
			Description: percent(byzantineFraction) + " of the daemons lie: corrupted bodies and fabricated store receipts",
			Faults:      sim.Faults{Byzantine: true},
		},
		{
			Name:        "poison",
			Description: "bogus directory entries for objects the cluster does not hold: refused live, planted in the simulator",
			Faults:      sim.Faults{Poison: true},
		},
	}
}

// percent renders a fault's fraction for a scenario's description.
func percent(fraction float64) string { return fmt.Sprintf("%.0f%%", fraction*100) }

// Lookup resolves a scenario by name.
func Lookup(name string) (Scenario, error) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("chaos: unknown scenario %q", name)
}
