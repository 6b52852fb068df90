// Corporate-network scenario: the paper's motivating deployment — a
// proxy cluster serving two corporate networks whose desktop browser
// caches are federated into P2P client caches with Hier-GD.
//
// This example exercises the deployment-facing machinery end to end:
//
//   - the Bloom-filter lookup directory versus the Exact-Directory
//     (memory versus wasted-lookup trade-off, §4.2);
//   - piggybacked destaging versus dedicated connections (§4.4);
//   - desktop churn: machines crash mid-day and replacements join,
//     with the overlay re-homing objects.
package main

import (
	"fmt"
	"log"

	"webcache"
)

func main() {
	// A mid-size corporation: two sites, 100 desktops each, browsing
	// a 2,000-object working universe.
	tr, err := webcache.GenerateWorkload(webcache.WorkloadConfig{
		NumRequests:  200_000,
		NumObjects:   2_000,
		NumClients:   200,
		OneTimerFrac: 0.5,
		Alpha:        0.7,
		StackFrac:    0.2,
		Seed:         7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("corporate workload:", webcache.AnalyzeTrace(tr))
	const frac = 0.15 // modest proxy caches: the regime where client caches matter

	nc, err := webcache.Run(tr, webcache.Config{Scheme: webcache.NC, ProxyCacheFrac: frac, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	type variant struct {
		name string
		cfg  webcache.Config
	}
	variants := []variant{
		{"exact directory, piggyback", webcache.Config{
			Scheme: webcache.HierGD, ProxyCacheFrac: frac, Seed: 1}},
		{"bloom directory, piggyback", webcache.Config{
			Scheme: webcache.HierGD, ProxyCacheFrac: frac, Seed: 1,
			Directory: webcache.DirBloom}},
		{"exact directory, no piggyback", webcache.Config{
			Scheme: webcache.HierGD, ProxyCacheFrac: frac, Seed: 1,
			DisablePiggyback: true}},
		{"bloom + desktop churn (fail & replace)", webcache.Config{
			Scheme: webcache.HierGD, ProxyCacheFrac: frac, Seed: 1,
			Directory: webcache.DirBloom,
			FailEvery: 10_000, ReplaceFailed: true}},
	}

	fmt.Printf("\n%-40s %8s %7s %10s %10s %8s %8s %8s\n",
		"variant", "gain%", "p2p%", "messages", "dir-mem", "dirFP", "failed", "maxload")
	for _, v := range variants {
		res, err := webcache.Run(tr, v.cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-40s %8.1f %7.1f %10d %9dB %8d %8d %8d\n",
			v.name,
			100*webcache.Gain(res.AvgLatency, nc.AvgLatency),
			100*res.HitRatio(webcache.SrcP2P),
			res.P2P.Messages,
			res.DirectoryMemoryBytes,
			res.DirectoryFalsePositives,
			res.FailedClients,
			res.P2PMaxNodeServes)
	}

	fmt.Println("\nReading the table:")
	fmt.Println("  - the Bloom directory costs a fraction of the exact directory's memory")
	fmt.Println("    and a handful of wasted LAN lookups (dirFP);")
	fmt.Println("  - disabling piggybacking leaves hit behaviour identical but spends an")
	fmt.Println("    extra proxy->client connection per destaged object (messages);")
	fmt.Println("  - desktop churn loses cached objects, yet replacements re-join the")
	fmt.Println("    overlay and the latency gain degrades only mildly;")
	fmt.Println("  - maxload is the busiest desktop's lookup serves: each object has one")
	fmt.Println("    copy, so the desktop that owns a popular object serves all its hits.")
}
