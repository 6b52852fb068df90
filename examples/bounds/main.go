// Bounds study: how much headroom do the paper's policies leave?
//
// The paper's own upper bound frames every result: the FC/FC-EC
// cost-benefit placement with perfect frequency knowledge bounds any
// coordination of the proxy and client caches.
//
// This example first compares the single-cache replacement policies
// (LRU, perfect LFU, greedy-dual, GDSF) by their misses on one
// workload, then measures scheme latency against the FC-EC envelope.
package main

import (
	"fmt"
	"log"

	"webcache"
	"webcache/internal/cache"
	"webcache/internal/prowgen"
	"webcache/internal/trace"
)

func main() {
	cfg := prowgen.Config{
		NumRequests: 150_000,
		NumObjects:  2_000,
		NumClients:  200,
		Seed:        21,
	}
	tr, err := prowgen.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("workload:", webcache.AnalyzeTrace(tr))

	// Part 1: single-cache policies on the same request sequence.
	seq := make([]trace.ObjectID, tr.Len())
	for i, r := range tr.Requests {
		seq[i] = r.Object
	}
	const capacity = 200 // 10% of the object universe
	fmt.Printf("\nsingle cache of %d objects, %d requests — misses:\n", capacity, len(seq))
	policies := []struct {
		name string
		p    cache.Policy
	}{
		{"lru", cache.NewLRU(capacity)},
		{"lfu-perfect", cache.NewPerfectLFU(capacity)},
		{"greedy-dual", cache.NewGreedyDual(capacity)},
		{"gdsf", cache.NewGDSF(capacity)},
	}
	for _, pl := range policies {
		misses := replaySingleCache(pl.p, seq)
		fmt.Printf("  %-12s %7d misses  (%.1f%% miss ratio)\n", pl.name, misses, 100*float64(misses)/float64(len(seq)))
	}

	// Part 2: cooperative schemes against the FC-EC envelope.
	fmt.Println("\ncooperative schemes at 20% proxy caches — gain vs NC:")
	nc, err := webcache.Run(tr, webcache.Config{Scheme: webcache.NC, ProxyCacheFrac: 0.2, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	rows := []struct {
		name string
		cfg  webcache.Config
	}{
		{"SC", webcache.Config{Scheme: webcache.SC, ProxyCacheFrac: 0.2, Seed: 1}},
		{"Hier-GD", webcache.Config{Scheme: webcache.HierGD, ProxyCacheFrac: 0.2, Seed: 1}},
		{"FC (perfect knowledge)", webcache.Config{Scheme: webcache.FC, ProxyCacheFrac: 0.2, Seed: 1}},
		{"FC-EC (upper bound)", webcache.Config{Scheme: webcache.FCEC, ProxyCacheFrac: 0.2, Seed: 1}},
	}
	for _, row := range rows {
		res, err := webcache.Run(tr, row.cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-24s %6.1f%%\n", row.name, 100*webcache.Gain(res.AvgLatency, nc.AvgLatency))
	}
}

// replaySingleCache replays a unit-size request sequence against one
// cache under the given policy and returns the miss count.  A miss is
// recorded in perfect LFU's history before the fill, as the simulator's
// LFU tiers do.
func replaySingleCache(p cache.Policy, sequence []trace.ObjectID) (misses int) {
	for _, obj := range sequence {
		if p.Access(obj) {
			continue
		}
		misses++
		if lfu, ok := p.(*cache.LFU); ok {
			lfu.RecordMiss(obj)
		}
		p.Add(cache.Entry{Obj: obj, Size: 1, Cost: 1})
	}
	return misses
}
