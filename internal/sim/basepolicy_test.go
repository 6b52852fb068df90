package sim

import "testing"

func TestBasePolicyVariantsRun(t *testing.T) {
	tr := testTrace(t, 80)
	for _, bp := range []BasePolicy{BasePerfectLFU, BaseLFUInCache, BaseLRU, BaseGreedyDual} {
		t.Run(bp.String(), func(t *testing.T) {
			res := run(t, tr, Config{Scheme: SCEC, ProxyCacheFrac: 0.2, BasePolicy: bp, Seed: 1})
			sum := 0
			for _, n := range res.Sources {
				sum += n
			}
			if sum != tr.Len() {
				t.Fatalf("conservation broken under %v", bp)
			}
		})
	}
}

func TestBasePolicyChangesBehaviour(t *testing.T) {
	tr := testTrace(t, 81)
	lfu := run(t, tr, Config{Scheme: NC, ProxyCacheFrac: 0.2, Seed: 1})
	lru := run(t, tr, Config{Scheme: NC, ProxyCacheFrac: 0.2, BasePolicy: BaseLRU, Seed: 1})
	if lfu.AvgLatency == lru.AvgLatency {
		t.Error("LRU and LFU baselines identical — knob inert")
	}
}
