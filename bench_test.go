// Ablation benches for the design choices of §4 (DESIGN.md §5), each
// reporting what the choice buys as custom metrics:
//
//	go test -bench=. -benchtime=1x -run '^$' .
//
// The paper's figures come from `make paper` (results/figures.md).
package webcache_test

import (
	"fmt"
	"testing"

	"webcache"
	"webcache/internal/pastry"
)

// --- Ablation benches (DESIGN.md §5) ----------------------------------

func benchTrace(b *testing.B) *webcache.Trace {
	b.Helper()
	tr, err := webcache.GenerateWorkload(webcache.WorkloadConfig{
		NumRequests: 100_000,
		NumObjects:  1_500,
		NumClients:  200,
		Seed:        1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkObjectDiversion measures what leaf-set object diversion
// (§4.3) buys: client-tier hit ratio and premature evictions with the
// mechanism on and off.
func BenchmarkObjectDiversion(b *testing.B) {
	tr := benchTrace(b)
	for _, disable := range []bool{false, true} {
		name := "diversion"
		if disable {
			name = "no-diversion"
		}
		b.Run(name, func(b *testing.B) {
			var res *webcache.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = webcache.Run(tr, webcache.Config{
					Scheme: webcache.HierGD, ProxyCacheFrac: 0.15,
					DisableDiversion: disable, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*res.HitRatio(webcache.SrcP2P), "p2p-hit%")
			b.ReportMetric(float64(res.P2P.Evictions), "evictions")
			b.ReportMetric(float64(res.P2P.Diversions), "diversions")
		})
	}
}

// BenchmarkPiggyback measures the message saving of piggybacked
// destaging (§4.4) versus dedicated proxy->client connections.
func BenchmarkPiggyback(b *testing.B) {
	tr := benchTrace(b)
	for _, disable := range []bool{false, true} {
		name := "piggyback"
		if disable {
			name = "dedicated"
		}
		b.Run(name, func(b *testing.B) {
			var res *webcache.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = webcache.Run(tr, webcache.Config{
					Scheme: webcache.HierGD, ProxyCacheFrac: 0.15,
					DisablePiggyback: disable, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.P2P.Messages), "messages")
			b.ReportMetric(float64(res.P2P.PiggybackSave), "saved")
		})
	}
}

// BenchmarkInterProxyDigests compares perfect inter-proxy knowledge
// (the paper's idealization) against Summary-Cache-style Bloom digests
// at several exchange intervals: stale digests lose remote hits and
// waste probes.
func BenchmarkInterProxyDigests(b *testing.B) {
	tr := benchTrace(b)
	for _, interval := range []int{0, 1_000, 10_000, 50_000} {
		name := "perfect"
		if interval > 0 {
			name = fmt.Sprintf("every-%dk", interval/1000)
		}
		b.Run(name, func(b *testing.B) {
			var res *webcache.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = webcache.Run(tr, webcache.Config{
					Scheme: webcache.SC, ProxyCacheFrac: 0.2,
					DigestInterval: interval, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*res.HitRatio(webcache.SrcRemoteProxy), "remote-hit%")
			b.ReportMetric(float64(res.DigestStaleProbes), "stale-probes")
			b.ReportMetric(res.AvgLatency*1000, "mlat")
		})
	}
}

// BenchmarkVariableSizes replays the extension workload (lognormal
// body + Pareto tail object sizes) through the size-aware policies.
func BenchmarkVariableSizes(b *testing.B) {
	tr, err := webcache.GenerateWorkload(webcache.WorkloadConfig{
		NumRequests: 100_000, NumObjects: 1_500, NumClients: 200,
		VariableSizes: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range []webcache.Scheme{webcache.SC, webcache.FCEC, webcache.HierGD} {
		b.Run(s.String(), func(b *testing.B) {
			var res *webcache.Result
			for i := 0; i < b.N; i++ {
				res, err = webcache.Run(tr, webcache.Config{
					Scheme: s, ProxyCacheFrac: 0.2, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.AvgLatency*1000, "mlat")
			b.SetBytes(int64(tr.Len()))
		})
	}
}

// BenchmarkProximityRouting measures the stretch reduction of
// proximity-aware routing tables (real Pastry's locality heuristic).
func BenchmarkProximityRouting(b *testing.B) {
	for _, aware := range []bool{false, true} {
		name := "oblivious"
		if aware {
			name = "aware"
		}
		b.Run(name, func(b *testing.B) {
			ov, err := pastry.New(pastry.Config{Seed: 1, ProximityAware: aware})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ov.JoinN(512, "proxbench"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ov.Route(pastry.HashUint64(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
			st := ov.Stats()
			b.ReportMetric(st.MeanStretch, "stretch")
			b.ReportMetric(st.MeanHops, "hops")
		})
	}
}

// BenchmarkDiversionBalance reports how often Hier-GD diverts and its
// P2P hit %, with and without §4.3's object diversion; the Gini
// coefficient of storage load is held by internal/p2p's
// TestDiversionImprovesBalance.
func BenchmarkDiversionBalance(b *testing.B) {
	tr := benchTrace(b)
	for _, disable := range []bool{false, true} {
		name := "diversion"
		if disable {
			name = "no-diversion"
		}
		b.Run(name, func(b *testing.B) {
			var res *webcache.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = webcache.Run(tr, webcache.Config{
					Scheme: webcache.HierGD, ProxyCacheFrac: 0.1,
					DisableDiversion: disable, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.P2P.Diversions), "diversions")
			b.ReportMetric(100*res.HitRatio(webcache.SrcP2P), "p2p-hit%")
		})
	}
}

// BenchmarkSquirrelVsHierGD quantifies the paper's §6 comparison with
// the Squirrel decentralized web cache: same pooled client caches,
// with and without the proxy tier and inter-proxy cooperation.
func BenchmarkSquirrelVsHierGD(b *testing.B) {
	tr := benchTrace(b)
	for _, s := range []webcache.Scheme{webcache.Squirrel, webcache.HierGD} {
		b.Run(s.String(), func(b *testing.B) {
			var res *webcache.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = webcache.Run(tr, webcache.Config{
					Scheme: s, ProxyCacheFrac: 0.2, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.AvgLatency*1000, "mlat")
			b.ReportMetric(100*res.HitRatio(webcache.SrcP2P), "p2p-hit%")
		})
	}
}

// BenchmarkClusterAffinity breaks the paper's statistically-identical-
// populations assumption: as organizational interests become disjoint
// (affinity -> 1), inter-proxy sharing starves while the client-cache
// tier keeps paying off.
func BenchmarkClusterAffinity(b *testing.B) {
	for _, aff := range []float64{0, 0.5, 0.95} {
		tr, err := webcache.GenerateWorkload(webcache.WorkloadConfig{
			NumRequests: 100_000, NumObjects: 2_000, NumClients: 200,
			NumClusters: 2, ClusterAffinity: aff, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("affinity=%.2f", aff), func(b *testing.B) {
			var sc, hg *webcache.Result
			for i := 0; i < b.N; i++ {
				nc, err := webcache.Run(tr, webcache.Config{Scheme: webcache.NC, ProxyCacheFrac: 0.2, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				sc, err = webcache.Run(tr, webcache.Config{Scheme: webcache.SC, ProxyCacheFrac: 0.2, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				hg, err = webcache.Run(tr, webcache.Config{Scheme: webcache.HierGD, ProxyCacheFrac: 0.2, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*webcache.Gain(sc.AvgLatency, nc.AvgLatency), "sc-gain%")
				b.ReportMetric(100*webcache.Gain(hg.AvgLatency, nc.AvgLatency), "hiergd-gain%")
			}
		})
	}
}
