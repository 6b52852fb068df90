package main

import "webcache/internal/sim"

// The frozen sizes.  Changing any of them changes what every metric
// means, so it is a benchmark change (its own PR, baseline measured
// again), and the sim goldens must be regenerated with -write-golden.

var liveHit = liveSizes{
	Objects:         2000,
	Clients:         200,
	ObjectBytes:     512,
	ProxyCapObjects: 8000, // 4x the working set: nothing is ever evicted
	CacheCapObjects: 2000,
	TouchAll:        true,
	Pool:            200000,
	Block:           20000,
	BlocksPerSecond: 1.7,
	Alpha:           0.7,
	OneTimerFrac:    0.5,
	StackFrac:       0.2,
}

var liveCascade = liveSizes{
	Objects:         22000,
	Clients:         200,
	ObjectBytes:     8192,
	ProxyCapObjects: 1100, // working set = 20x one proxy's memory
	CacheCapObjects: 1100, // 3 client caches = 3x the proxy
	Warmup:          10000,
	Pool:            60000,
	Block:           4000,
	BlocksPerSecond: 0.7,
	Alpha:           0.75,
	OneTimerFrac:    0.5,
	StackFrac:       0.2,
}

var simCompare = simSizes{
	Name:            "sim_compare",
	Requests:        300000,
	Objects:         10000,
	Clients:         200,
	Schemes:         allSchemes,
	PassesPerSecond: 0.6,
}

var simChurn = simSizes{
	Name:            "sim_churn",
	Requests:        300000,
	Objects:         10000,
	Clients:         200,
	Schemes:         []sim.Scheme{sim.HierGD, sim.Squirrel},
	Bloom:           true,
	FailEvery:       500,
	PassesPerSecond: 0.8,
}
