package loadgen

import (
	"math/rand"
	"testing"

	"webcache/internal/httpcache"
	"webcache/internal/netmodel"
	"webcache/internal/prowgen"
	"webcache/internal/sim"
)

// What the live proxies' digests cost in hit ratio, priced by the
// simulator on the live_cascade benchmark's topology, trace and seeds
// (bench/sizes.go: two proxies of 1 100 objects, three client caches of
// 1 100 behind each, 22 000 objects, 10 000 warm-up requests and 60 000
// measured, issued in a seeded random order).  At the interval the live
// proxies pull at, the digest may cost at most half a percentage point
// of hit ratio against perfect peer knowledge.  Both of its prices are
// reported: false positives (stale probes, each a wasted lookup) and
// false negatives (remote hits lost to the origin).
func TestDigestPriceAtLiveCascade(t *testing.T) {
	if testing.Short() {
		t.Skip("two 70 000-request replays per seed in -short mode")
	}
	for _, seed := range []int64{1, 2} {
		tr, err := prowgen.Generate(prowgen.Config{
			NumRequests:  70000,
			NumObjects:   22000,
			NumClients:   200,
			Alpha:        0.75,
			OneTimerFrac: 0.5,
			StackFrac:    0.2,
			Seed:         seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		rq := tr.Requests
		rand.New(rand.NewSource(seed)).Shuffle(len(rq), func(i, j int) {
			rq[i].Client, rq[j].Client = rq[j].Client, rq[i].Client
			rq[i].Object, rq[j].Object = rq[j].Object, rq[i].Object
			rq[i].Size, rq[j].Size = rq[j].Size, rq[i].Size
		})
		perfect := sim.Config{
			Scheme:                 sim.HierGD,
			NumProxies:             2,
			ClientsPerCluster:      100,
			P2PClientCaches:        3,
			Directory:              sim.DirExact,
			ProxyCapacityOverride:  []uint64{1100},
			ClientCapacityOverride: []uint64{1100},
			WarmupRequests:         10000,
			Seed:                   seed,
		}
		paired := perfect
		paired.DigestInterval = httpcache.DigestEvery * perfect.NumProxies
		replay := func(cfg sim.Config) *sim.Result {
			r, err := sim.Run(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		all, stale := replay(perfect), replay(paired)
		hit := func(r *sim.Result) float64 { return 1 - r.HitRatio(netmodel.SrcServer) }
		remote := func(r *sim.Result) int { return r.Sources[netmodel.SrcRemoteProxy] }
		loss := 100 * (hit(all) - hit(stale))
		t.Logf("seed %d: hit ratio %.4f with perfect knowledge, %.4f at DigestInterval %d (%.2f pp); %d false positives, %d false negatives (remote hits %d → %d)",
			seed, hit(all), hit(stale), paired.DigestInterval, loss,
			stale.DigestStaleProbes, remote(all)-remote(stale), remote(all), remote(stale))
		if loss > 0.5 || loss < 0 {
			t.Errorf("seed %d: the paired digest costs %.2f pp of hit ratio, want between 0 and 0.5", seed, loss)
		}
		if stale.DigestStaleProbes == 0 || remote(all) <= remote(stale) {
			t.Errorf("seed %d: a stale digest with no false positives (%d) or no false negatives (%d)",
				seed, stale.DigestStaleProbes, remote(all)-remote(stale))
		}
	}
}
