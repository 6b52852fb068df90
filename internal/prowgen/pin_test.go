package prowgen

import (
	"testing"

	"webcache/internal/trace"
)

// TestGeneratePinned pins the generator's output, by trace.Fingerprint,
// for the configurations the repo's benchmark and goldens generate
// (sim_compare's and sim_churn's at seeds 1 and 2, whose fingerprints the
// goldens also carry; live_cascade's before its shuffle) and for the two
// optional models (variable sizes, cluster affinity).  A change to what
// Generate draws fails here, in tier-1, and not only in the golden
// check: a faster generator must produce the same traces.
func TestGeneratePinned(t *testing.T) {
	simCompare := func(seed int64) Config {
		return Config{NumRequests: 300_000, NumObjects: 10_000, NumClients: 200, Seed: seed}
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"sim_compare seed 1", simCompare(1), "fnv1a:57774e59d97d2e3a"},
		{"sim_compare seed 2", simCompare(2), "fnv1a:bb8e33cb22185ee1"},
		{"live_cascade", Config{NumRequests: 70_000, NumObjects: 22_000, NumClients: 200,
			Alpha: 0.75, OneTimerFrac: 0.5, StackFrac: 0.2, Seed: 1}, "fnv1a:d2e877a6c4edb3bd"},
		{"variable sizes", Config{NumRequests: 20_000, NumObjects: 2_000, NumClients: 50,
			VariableSizes: true, Seed: 3}, "fnv1a:7285225cb95eb95c"},
		{"cluster affinity", Config{NumRequests: 20_000, NumObjects: 2_000, NumClients: 60,
			NumClusters: 3, ClusterAffinity: 0.8, Seed: 4}, "fnv1a:b29b6a64830dd0ba"},
	} {
		tr, err := Generate(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := trace.Fingerprint(tr); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}
