package sim

import (
	"testing"

	"webcache/internal/netmodel"
)

// The oracle (default) FC is an upper bound; the trailing variant is
// the implementable form and must be weaker or equal.
func TestFCTrailingWeakerThanOracle(t *testing.T) {
	tr := testTrace(t, 30)
	for _, s := range []Scheme{FC, FCEC} {
		oracle := run(t, tr, Config{Scheme: s, ProxyCacheFrac: 0.2, Seed: 1})
		trailing := run(t, tr, Config{Scheme: s, ProxyCacheFrac: 0.2, FCTrailing: true, Seed: 1})
		if trailing.AvgLatency < oracle.AvgLatency {
			t.Errorf("%v: trailing (%.4f) beat the oracle (%.4f)", s, trailing.AvgLatency, oracle.AvgLatency)
		}
	}
}

// The trailing (implementable) variant documents *why* the paper's FC
// needs perfect frequency knowledge: placements computed from the past
// miss every object introduced in the current window, and under the
// workload's temporal locality those fresh objects carry enough of the
// traffic that trailing FC can even lose to plain NC.  The oracle
// stays comfortably ahead on the same trace.
func TestFCTrailingSuffersUnderDrift(t *testing.T) {
	tr := testTrace(t, 32)
	nc := run(t, tr, Config{Scheme: NC, ProxyCacheFrac: 0.5, Seed: 1})
	trailing := run(t, tr, Config{Scheme: FC, ProxyCacheFrac: 0.5, FCTrailing: true, Seed: 1})
	oracle := run(t, tr, Config{Scheme: FC, ProxyCacheFrac: 0.5, Seed: 1})
	gTrail := netmodel.Gain(trailing.AvgLatency, nc.AvgLatency)
	gOracle := netmodel.Gain(oracle.AvgLatency, nc.AvgLatency)
	if gOracle <= 0.3 {
		t.Errorf("oracle FC gain %.3f unexpectedly small", gOracle)
	}
	if gOracle-gTrail < 0.2 {
		t.Errorf("perfect knowledge worth only %.3f (oracle %.3f, trailing %.3f) - drift sensitivity vanished",
			gOracle-gTrail, gOracle, gTrail)
	}
	// Sanity: trailing FC is degraded, not broken.
	if gTrail < -0.5 {
		t.Errorf("trailing FC gain %.3f pathologically bad", gTrail)
	}
}
