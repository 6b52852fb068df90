package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"time"

	"webcache/internal/chaos"
	"webcache/internal/httpcache"
	"webcache/internal/loadgen"
	"webcache/internal/obs"
	"webcache/internal/obs/cluster"
	"webcache/internal/obs/slo"
	"webcache/internal/trace"
)

// sloCell is one (defenses off|on) cell's outcome.
type sloCell struct {
	DefensesOn  bool                  `json:"defenses_on"`
	LoadgenHit  float64               `json:"loadgen_hit_ratio"`
	ClusterHit  float64               `json:"cluster_hit_ratio"`
	HitDelta    float64               `json:"hit_delta"`
	Requests    int                   `json:"requests"`
	Errors      int                   `json:"errors"`
	MembersUp   int                   `json:"members_up"`
	SLO         []cluster.ClassRollup `json:"slo"`
	LoadgenNote map[string]any        `json:"loadgen"`

	snap *cluster.Snapshot
}

// rollup returns the named class's fleet-wide rollup.
func (c *sloCell) rollup(name string) *cluster.ClassRollup {
	for i := range c.SLO {
		if c.SLO[i].Name == name {
			return &c.SLO[i]
		}
	}
	return nil
}

// sloGate is the fleet-wide SLO plane end to end: a loopback
// multi-member topology with per-member registries and SLO trackers,
// driven with class-tagged requests under a chaos scenario, defenses
// off and on; the cluster aggregator scrapes every member and the
// gates check that (a) the defenses cut the gated class's fast-window
// burn rate, and (b) the aggregator's cluster hit ratio agrees with
// the load generator's own accounting to within -slo-max-hit-delta.
type sloGate struct {
	*workload
	topology
	scenario    string // chaos scenario injected into both cells
	classSpecs  string // slo.ParseClasses syntax; the first class is the gated one
	maxHitDelta float64
}

func (g *sloGate) bind(fs *flag.FlagSet) {
	g.topology.bind(fs)
	fs.StringVar(&g.classSpecs, "slo-classes", "interactive:100ms:0.99:30s,batch:1s:0.9:30s", `SLO classes as "name:latency:availability[:window]", comma-separated; the first class is the burn-rate gate`)
	fs.StringVar(&g.scenario, "slo-scenario", "slow-peer", "chaos scenario injected into both cells")
	fs.Float64Var(&g.maxHitDelta, "slo-max-hit-delta", 0.01, "fail if |aggregator - loadgen| hit ratio exceeds this (0 = report only)")
}

func (g *sloGate) run() error {
	classes, err := slo.ParseClasses(g.classSpecs)
	if err != nil {
		return err
	}
	if len(classes) < 2 {
		return fmt.Errorf("slo bench: need at least two classes, got %q", g.classSpecs)
	}
	scn, err := chaos.Lookup(g.scenario)
	if err != nil {
		return err
	}
	tr, err := g.generate()
	if err != nil {
		return err
	}
	fmt.Printf("slo bench: %d proxies x %d caches, classes %q, scenario %s\n",
		g.proxies, g.caches, g.classSpecs, scn.Name)

	reg := obs.NewRegistry("hiergdd-slo")
	var cells []*sloCell
	for _, on := range []bool{false, true} {
		cell, err := g.runCell(tr, classes, scn, on)
		if err != nil {
			return fmt.Errorf("slo bench defenses=%v: %w", on, err)
		}
		gated := cell.rollup(classes[0].Name)
		if gated == nil {
			return fmt.Errorf("slo bench defenses=%v: aggregator lost class %q: %+v",
				on, classes[0].Name, cell.SLO)
		}
		fmt.Printf("  defenses=%-5v hit live %.3f cluster %.3f (delta %+.4f)  %s burn.fast %.2f burn.slow %.2f  members up %d/%d\n",
			on, cell.LoadgenHit, cell.ClusterHit, cell.HitDelta,
			gated.Name, gated.FastBurn, gated.SlowBurn, cell.MembersUp, g.proxies)
		if g.maxHitDelta > 0 && math.Abs(cell.HitDelta) > g.maxHitDelta {
			return fmt.Errorf("slo bench defenses=%v: aggregator hit ratio %.4f vs loadgen %.4f — |delta| %.4f > %.4f gate",
				on, cell.ClusterHit, cell.LoadgenHit, math.Abs(cell.HitDelta), g.maxHitDelta)
		}
		cells = append(cells, cell)
	}

	off, on := cells[0], cells[1]
	burnOff := off.rollup(classes[0].Name).FastBurn
	burnOn := on.rollup(classes[0].Name).FastBurn
	if burnOn >= burnOff {
		return fmt.Errorf("slo bench: defenses did not cut the %s fast burn (off %.2f, on %.2f)",
			classes[0].Name, burnOff, burnOn)
	}
	fmt.Printf("slo bench: defenses cut %s fast burn %.2f -> %.2f\n",
		classes[0].Name, burnOff, burnOn)

	// The defenses-on cell's merged cluster view (cluster.* gauges,
	// per-member sums) is the manifest's metric snapshot, so benchdiff
	// tracks the aggregator's numbers run over run.
	for k, v := range on.snap.Values {
		reg.Gauge(k).Set(v)
	}
	reg.Gauge("slo.bench.burn_fast_off").Set(burnOff)
	reg.Gauge("slo.bench.burn_fast_on").Set(burnOn)
	return g.finish(tr, reg, map[string]any{
		"requests":         g.requests,
		"objects":          g.objects,
		"clients":          g.clients,
		"proxies":          g.proxies,
		"caches_per_proxy": g.caches,
		"object_bytes":     g.objectBytes,
		"rate":             g.rate,
		"seed":             benchSeed,
		"scenario":         scn.Name,
		"classes":          g.classSpecs,
		"max_hit_delta":    g.maxHitDelta,
	}, map[string]any{"defenses_off": off, "defenses_on": on})
}

// runCell stands up one class-tagged loopback run: per-member
// registries and SLO trackers, the scenario's fault injectors, the
// drive, then a real aggregator scrape over the members' /metrics and
// /fleet/heartbeat endpoints.
func (g *sloGate) runCell(tr *trace.Trace, classes []slo.Class, scn chaos.Scenario, on bool) (*sloCell, error) {
	simCfg := g.simConfig(g.clients)
	proxyCap, clientCap := simCfg.CapacityPlan(tr)

	inj := chaos.NewInjector(scn, g.caches, obs.NewRegistry("slo-inject"))
	var defenses *httpcache.Defenses
	if on {
		defenses = chaos.Hardened()
	}
	topo, err := loadgen.StartLoopback(loadgen.TopologyConfig{
		Proxies:            g.proxies,
		CachesPerProxy:     g.caches,
		ProxyCapacityBytes: unitsToBytes(proxyCap, g.objectBytes),
		CacheCapacityBytes: unitsToBytes(clientCap, g.objectBytes),
		ObjectBytes:        g.objectBytes,
		Defenses:           defenses,
		WrapProxy:          inj.WrapProxy,
		WrapCache:          inj.WrapCache,
		MetricsPerDaemon:   true,
		SLOClasses:         classes,
	})
	if err != nil {
		return nil, err
	}
	defer closeTopology(topo, 5*time.Second)

	sched, err := loadgen.BuildSchedule(tr, topo.ProxyURLs, topo.OriginURL, simCfg.ProxyFor)
	if err != nil {
		return nil, err
	}
	arrival, err := loadgen.NewPoisson(g.rate, benchSeed)
	if err != nil {
		return nil, err
	}
	// Warmup 0: the gate compares the aggregator's counters (which see
	// every request the daemons served) against the driver's aggregate,
	// so both sides must account the same population.
	tgt := loadgen.NewHTTPTarget(benchTimeout)
	res, err := loadgen.Run(context.Background(), sched, tgt, loadgen.Options{
		Mode:    loadgen.OpenLoop,
		Arrival: arrival,
		Warmup:  0,
		Obs:     obs.NewRegistry("slo-drive"),
		ClassFor: func(r loadgen.ScheduledRequest) string {
			if int(r.Client)%3 == 0 {
				return classes[1].Name
			}
			return classes[0].Name
		},
	})
	tgt.CloseIdleConnections()
	if err != nil {
		return nil, err
	}

	// The real aggregation path: scrape each member's live /metrics and
	// /fleet/heartbeat over HTTP, exactly as `hiergdd top` and the
	// daemon-side /cluster endpoints do.
	members := make([]cluster.Member, len(topo.ProxyURLs))
	for i, u := range topo.ProxyURLs {
		members[i] = cluster.Member{Name: fmt.Sprintf("member-%d", i), URL: u}
	}
	agg := cluster.New(members, cluster.Options{})
	snap := agg.ScrapeOnce(context.Background())

	cell := &sloCell{
		DefensesOn:  on,
		LoadgenHit:  res.AggregateHitRatio(),
		ClusterHit:  snap.HitRatio,
		Requests:    res.Measured,
		Errors:      res.Errors,
		SLO:         snap.SLO,
		LoadgenNote: res.SummaryNote(),
		snap:        snap,
	}
	cell.HitDelta = cell.ClusterHit - cell.LoadgenHit
	for _, m := range snap.Members {
		if m.Up {
			cell.MembersUp++
		}
	}
	if cell.MembersUp != g.proxies {
		return nil, fmt.Errorf("aggregator saw %d/%d members up: %+v",
			cell.MembersUp, g.proxies, snap.Members)
	}
	return cell, nil
}
