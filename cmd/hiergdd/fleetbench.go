package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"webcache/internal/httpcache"
	"webcache/internal/loadgen"
	"webcache/internal/obs"
	"webcache/internal/trace"
)

// The sweep's fixed shape: the TOTAL proxy budget split across members,
// and the per-member service gate standing in for member CPU.
const (
	fleetTotalFrac   = 0.2              // total proxy budget / distinct objects
	fleetServiceTime = time.Millisecond // modeled per-request service time at each member
	fleetConcurrency = 2                // service slots per member
)

// fleetRow is one sweep point's record in BENCH_fleet.json.
type fleetRow struct {
	Members      int                  `json:"members"`
	PerMemberCap uint64               `json:"per_member_capacity_units"`
	AchievedRate float64              `json:"achieved_rate"`
	HitRatio     float64              `json:"hit_ratio"`
	P999Ms       float64              `json:"p999_ms"`
	Errors       int                  `json:"errors"`
	Fleet        httpcache.FleetStats `json:"fleet"`
}

// fleetGate sweeps fleet sizes over the SAME workload and the SAME
// total cache budget (split evenly across members), driving each
// topology closed-loop through a per-member service gate — a
// concurrency semaphore plus a fixed service time per client-facing
// /fetch, the stand-in for a member's CPU.  A single member therefore
// tops out near concurrency/serviceTime req/s, and the sweep measures
// how much of the n-fold capacity the consistent-hash fleet actually
// converts into throughput.  Gates: throughput strictly increasing in
// fleet size, the largest size at least -fleet-min-speedup times the
// single member, and every size's hit ratio within -fleet-max-hit-delta
// of the single member's (partitioning must not cost hits: n small
// caches behind the ring ~= one big cache).
type fleetGate struct {
	*workload
	sizes       string // ascending fleet sizes, e.g. 1,2,4,8
	replication int    // hot-object copy count k
	workers     int    // closed-loop drivers
	warmup      int
	minSpeedup  float64 // gate: rate(max size) / rate(1) floor
	maxHitDelta float64 // gate: |hit(n) - hit(1)| ceiling
}

func (g *fleetGate) bind(fs *flag.FlagSet) {
	bindWarmup(fs, &g.warmup)
	fs.IntVar(&g.workers, "workers", 8, "closed-loop concurrency")
	fs.StringVar(&g.sizes, "fleet-sizes", "1,2,4,8", "comma-separated ascending fleet sizes")
	fs.IntVar(&g.replication, "fleet-replication", 1, "hot-object copy count k")
	fs.Float64Var(&g.minSpeedup, "fleet-min-speedup", 0, "fail unless the largest fleet sustains this multiple of the single member's throughput (0 = report only)")
	fs.Float64Var(&g.maxHitDelta, "fleet-max-hit-delta", 0, "fail if any size's hit ratio drifts more than this from the single member's (0 = report only)")
}

func (g *fleetGate) run() error {
	sizes, err := parseSizesList(g.sizes)
	if err != nil {
		return err
	}
	tr, err := g.generate()
	if err != nil {
		return err
	}
	warmup := resolveWarmup(g.warmup, g.requests)
	distinct := distinctObjects(tr)
	totalUnits := uint64(math.Round(fleetTotalFrac * float64(distinct)))
	if totalUnits < 1 {
		totalUnits = 1
	}
	fmt.Printf("hiergdd fleet bench: %d requests / %d objects, total proxy budget %d units, service %v x %d slots/member\n",
		tr.Len(), distinct, totalUnits, fleetServiceTime, fleetConcurrency)

	var rows []fleetRow
	for _, n := range sizes {
		row, err := g.runSize(tr, n, totalUnits, warmup)
		if err != nil {
			return fmt.Errorf("fleet size %d: %w", n, err)
		}
		fmt.Printf("  n=%d: %7.0f req/s  hit %.3f  p999 %6.1fms  errors %d  routed %d (hits %d) replicas %d\n",
			n, row.AchievedRate, row.HitRatio, row.P999Ms, row.Errors,
			row.Fleet.Routed, row.Fleet.RoutedHits, row.Fleet.ReplicasOut)
		rows = append(rows, row)
	}

	// Gates.
	base := rows[0]
	for i, row := range rows {
		if row.Errors > 0 {
			return fmt.Errorf("fleet bench: %d request errors at size %d", row.Errors, row.Members)
		}
		if i > 0 && row.AchievedRate <= rows[i-1].AchievedRate {
			return fmt.Errorf("fleet bench: throughput not increasing: %.0f req/s at %d members vs %.0f at %d",
				row.AchievedRate, row.Members, rows[i-1].AchievedRate, rows[i-1].Members)
		}
		if d := math.Abs(row.HitRatio - base.HitRatio); g.maxHitDelta > 0 && d > g.maxHitDelta {
			return fmt.Errorf("fleet bench: hit ratio at %d members drifted %.3f from single-member %.3f (gate %.3f)",
				row.Members, d, base.HitRatio, g.maxHitDelta)
		}
	}
	last := rows[len(rows)-1]
	speedup := last.AchievedRate / base.AchievedRate
	if g.minSpeedup > 0 && speedup < g.minSpeedup {
		return fmt.Errorf("fleet bench: %d members only %.2fx the single member (%.0f vs %.0f req/s), gate requires >= %.2fx",
			last.Members, speedup, last.AchievedRate, base.AchievedRate, g.minSpeedup)
	}
	fmt.Printf("fleet bench: %d members %.2fx single-member throughput, hit drift <= %.3f — gates clear\n",
		last.Members, speedup, maxHitDrift(rows))

	// Per-size gauges make the sweep benchdiff-able: CI's fleet manifest
	// diff loop compares these run to run, so throughput or hit-ratio
	// drift at any size shows up as a numbered delta, not just a changed
	// opaque note blob.
	reg := obs.NewRegistry("hiergdd-fleet")
	for _, row := range rows {
		pfx := fmt.Sprintf("bench.fleet.n%d.", row.Members)
		reg.Gauge(pfx + "req_per_sec").Set(row.AchievedRate)
		reg.Gauge(pfx + "hit_ratio").Set(row.HitRatio)
		reg.Gauge(pfx + "p999_ms").Set(row.P999Ms)
		reg.Gauge(pfx + "routed").Set(float64(row.Fleet.Routed))
		reg.Gauge(pfx + "routed_hits").Set(float64(row.Fleet.RoutedHits))
		reg.Gauge(pfx + "replicas_out").Set(float64(row.Fleet.ReplicasOut))
	}
	reg.Gauge("bench.fleet.speedup").Set(speedup)
	return g.finish(tr, reg, map[string]any{
		"requests":             g.requests,
		"objects":              g.objects,
		"clients":              g.clients,
		"object_bytes":         g.objectBytes,
		"sizes":                sizes,
		"replication":          g.replication,
		"total_capacity_units": totalUnits,
		"service_time":         fleetServiceTime.String(),
		"concurrency":          fleetConcurrency,
		"workers":              g.workers,
		"warmup":               warmup,
		"seed":                 benchSeed,
		"min_speedup":          g.minSpeedup,
		"max_hit_delta":        g.maxHitDelta,
	}, map[string]any{"sweep": rows, "speedup": speedup})
}

// runSize stands one n-member fleet up and drives the whole trace
// closed-loop through the ring-aware schedule.
func (g *fleetGate) runSize(tr *trace.Trace, n int, totalUnits uint64, warmup int) (fleetRow, error) {
	var row fleetRow
	perMember := totalUnits / uint64(n)
	if perMember < 1 {
		perMember = 1
	}
	row.Members = n
	row.PerMemberCap = perMember

	// The service gate: fleetConcurrency slots per member, each
	// client-facing /fetch holding one for fleetServiceTime.  Fleet hops
	// (FleetHopHeader set) pay the service time WITHOUT taking a slot —
	// a hop is served inline by a member that may itself be saturated,
	// and letting it queue on the same semaphore its caller holds a
	// slot of would deadlock the pair under full load.
	gates := make([]chan struct{}, n)
	for p := range gates {
		gates[p] = make(chan struct{}, fleetConcurrency)
	}
	wrap := func(p int, h http.Handler) http.Handler {
		gate := gates[p]
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/fetch" {
				if r.Header.Get(httpcache.FleetHopHeader) == "" {
					gate <- struct{}{}
					time.Sleep(fleetServiceTime)
					<-gate
				} else {
					time.Sleep(fleetServiceTime)
				}
			}
			h.ServeHTTP(w, r)
		})
	}

	defenses := httpcache.Defenses{
		PeerTimeout:         500 * time.Millisecond,
		AdaptivePeerTimeout: true,
		BreakerFailures:     3,
		BreakerCooldown:     500 * time.Millisecond,
	}
	topo, err := loadgen.StartLoopback(loadgen.TopologyConfig{
		Proxies:            n,
		CachesPerProxy:     0,
		ProxyCapacityBytes: []uint64{perMember * uint64(g.objectBytes)},
		CacheCapacityBytes: []uint64{1},
		ObjectBytes:        g.objectBytes,
		Defenses:           &defenses,
		WrapProxy:          wrap,
		Fleet:              true,
		FleetReplication:   g.replication,
	})
	if err != nil {
		return row, err
	}
	defer closeTopology(topo, 5*time.Second)

	sched, err := loadgen.BuildScheduleFleet(tr, topo.ProxyURLs, topo.OriginURL,
		topo.Proxies[0].FleetRing(), g.replication)
	if err != nil {
		return row, err
	}
	tgt := loadgen.NewHTTPTarget(benchTimeout)
	res, err := loadgen.Run(context.Background(), sched, tgt, loadgen.Options{
		Mode:    loadgen.ClosedLoop,
		Workers: g.workers,
		Warmup:  warmup,
		Obs:     obs.NewRegistry(fmt.Sprintf("fleet-n%d", n)),
	})
	tgt.CloseIdleConnections()
	if err != nil {
		return row, err
	}
	row.AchievedRate = res.AchievedRate
	row.HitRatio = res.AggregateHitRatio()
	row.P999Ms = float64(res.Overall.Quantile(0.999)) / float64(time.Millisecond)
	row.Errors = res.Errors
	for p := range topo.Proxies {
		st, err := topo.ProxyStats(p)
		if err != nil {
			return row, err
		}
		row.Fleet.Add(st.Fleet)
	}
	return row, nil
}

// maxHitDrift is the largest |hit(n) - hit(first)| across the sweep.
func maxHitDrift(rows []fleetRow) float64 {
	var max float64
	for _, r := range rows {
		if d := math.Abs(r.HitRatio - rows[0].HitRatio); d > max {
			max = d
		}
	}
	return max
}

// distinctObjects counts the trace's distinct object ids.
func distinctObjects(tr *trace.Trace) int {
	seen := make(map[trace.ObjectID]bool)
	for _, r := range tr.Requests {
		seen[r.Object] = true
	}
	return len(seen)
}

// parseSizesList parses "1,2,4,8" into an ascending size sweep.
func parseSizesList(list string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("fleet bench: bad size %q", s)
		}
		if len(out) > 0 && n <= out[len(out)-1] {
			return nil, fmt.Errorf("fleet bench: sizes must ascend, got %q", list)
		}
		out = append(out, n)
	}
	return out, nil
}
