package sim

import (
	"testing"

	"webcache/internal/netmodel"
	"webcache/internal/trace"
)

func TestDigestRebuildTracksContents(t *testing.T) {
	contents := []trace.ObjectID{1, 2, 3}
	d := newPeerTier(Config{Scheme: SC, NumProxies: 1, DigestInterval: 1},
		sizing{proxyCap: []uint64{100}, p2pCap: []uint64{0}}, nil,
		func(int) []trace.ObjectID { return contents })
	for _, obj := range contents {
		if !d.mayContain(0, obj) {
			t.Fatalf("object %d missing after initial build", obj)
		}
	}
	// Change contents; the digest is stale until rebuilt.
	contents = []trace.ObjectID{4, 5}
	if !d.mayContain(0, 1) {
		t.Error("digest rebuilt itself spontaneously")
	}
	d.rebuild()
	if d.mayContain(0, 1) && d.mayContain(0, 2) && d.mayContain(0, 3) {
		t.Error("all stale entries survive a rebuild (FP rate can't explain 3/3)")
	}
	if !d.mayContain(0, 4) || !d.mayContain(0, 5) {
		t.Error("fresh contents missing after rebuild")
	}
	var res Result
	d.finish(&res)
	if res.DigestRebuilds != 2 {
		t.Errorf("rebuilds = %d, want 2", res.DigestRebuilds)
	}
	if res.DigestMemoryBytes == 0 {
		t.Error("zero digest memory")
	}
}

func TestDigestSchemesRunAndDegradeGracefully(t *testing.T) {
	tr := testTrace(t, 20)
	for _, scheme := range []Scheme{SC, SCEC, HierGD} {
		t.Run(scheme.String(), func(t *testing.T) {
			perfect := run(t, tr, Config{Scheme: scheme, ProxyCacheFrac: 0.2, Seed: 1})
			digested := run(t, tr, Config{Scheme: scheme, ProxyCacheFrac: 0.2, Seed: 1, DigestInterval: 2_000})
			if digested.DigestRebuilds == 0 {
				t.Fatal("digests never rebuilt")
			}
			if digested.DigestMemoryBytes == 0 {
				t.Error("digest memory unreported")
			}
			// Digests can only lose sharing opportunities (and waste
			// probes), never gain them: latency must not improve by
			// more than noise, and must not explode.
			if digested.AvgLatency < perfect.AvgLatency*0.98 {
				t.Errorf("digests improved latency: %.4f vs %.4f", digested.AvgLatency, perfect.AvgLatency)
			}
			if digested.AvgLatency > perfect.AvgLatency*1.5 {
				t.Errorf("digests degraded latency wildly: %.4f vs %.4f", digested.AvgLatency, perfect.AvgLatency)
			}
			// Remote hits shrink (stale digests miss fresh objects).
			if digested.Sources[netmodel.SrcRemoteProxy] > perfect.Sources[netmodel.SrcRemoteProxy] {
				t.Errorf("digests increased remote hits: %d vs %d",
					digested.Sources[netmodel.SrcRemoteProxy], perfect.Sources[netmodel.SrcRemoteProxy])
			}
		})
	}
}

func TestDigestStalenessGrowsWithInterval(t *testing.T) {
	tr := testTrace(t, 21)
	remoteHits := func(interval int) int {
		res := run(t, tr, Config{Scheme: SC, ProxyCacheFrac: 0.2, Seed: 1, DigestInterval: interval})
		return res.Sources[netmodel.SrcRemoteProxy]
	}
	fresh := remoteHits(500)
	stale := remoteHits(20_000)
	if stale > fresh {
		t.Errorf("stale digests (20k) found more remote hits (%d) than fresh (500: %d)", stale, fresh)
	}
}

func TestDigestNCUnaffected(t *testing.T) {
	tr := testTrace(t, 22)
	plain := run(t, tr, Config{Scheme: NC, ProxyCacheFrac: 0.2, Seed: 1})
	dig := run(t, tr, Config{Scheme: NC, ProxyCacheFrac: 0.2, Seed: 1, DigestInterval: 1_000})
	if plain.AvgLatency != dig.AvgLatency {
		t.Error("digest interval changed NC (non-cooperative) results")
	}
	if dig.DigestRebuilds != 0 {
		t.Error("NC built digests")
	}
}

func TestDigestConfigValidation(t *testing.T) {
	tr := testTrace(t, 23)
	if _, err := Run(tr, Config{Scheme: SC, DigestInterval: -5}); err == nil {
		t.Error("negative digest interval accepted")
	}
}
