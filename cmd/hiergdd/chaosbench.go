package main

import (
	"flag"
	"fmt"
	"strings"

	"webcache/internal/chaos"
	"webcache/internal/invariant"
)

// chaosGate runs every requested scenario live with defenses off and
// on, replicates times, and simulated once (defenses on as well where
// the simulator models one), with the conservation accountant attached
// to each run.  Every request counts on both sides (no warmup).  It
// gates on zero accountant violations anywhere; on every live run, all
// members up and the cluster aggregator's hit ratio within
// chaos.MaxClusterDelta of the driver's; for launder, on every slow
// daemon that held the strike budget being condemned although it
// registered again just before the sweep (chaos.RunLive); and, for
// slow-peer, on every replicate, the per-hop deadlines and strike
// sweeps cutting the interactive class's fast burn and the live p999
// by at least chaos.MinP999Cut, at a live hit-ratio price of at most
// chaos.MaxDefensePrice.  Each row prints the replicates' median and
// range, and, when the baseline row ran, whether its cuts and price lie
// outside the baseline's range, the suite's noise floor.
type chaosGate struct {
	*workload
	topology
	scenarios  string // comma-separated names, empty = whole suite
	replicates int
}

func (g *chaosGate) bind(fs *flag.FlagSet) {
	g.topology.bind(fs)
	fs.StringVar(&g.scenarios, "chaos-scenarios", "", "comma-separated scenario names (empty = whole suite)")
	fs.IntVar(&g.replicates, "replicates", 1, "live pairs per scenario, each at chaos.Seed; the baseline's range is the noise floor")
}

func (g *chaosGate) run() error {
	if g.replicates < 1 {
		return fmt.Errorf("bench chaos: -replicates %d, want at least 1", g.replicates)
	}
	scns, err := chaosScenarios(g.scenarios)
	if err != nil {
		return err
	}
	reg := g.sess.Reg
	cfg := chaos.Config{
		Requests:       g.requests,
		Objects:        g.objects,
		Clients:        g.clients,
		ObjectBytes:    g.objectBytes,
		Rate:           g.rate,
		Proxies:        g.proxies,
		CachesPerProxy: g.caches,
		Registry:       reg,
	}
	// Every run below generates its scenario's workload from cfg; the
	// unskewed one generated here validates the shape once and supplies
	// the manifest's fingerprint.
	tr, err := cfg.Workload(chaos.Scenario{})
	if err != nil {
		return err
	}

	var rows []chaos.Row
	for _, scn := range scns {
		fmt.Printf("chaos: scenario %-12s %s\n", scn.Name, scn.Description)
		row := chaos.Row{Scenario: scn.Name, Description: scn.Description}

		// Each run gets its own checker so a violation is attributable to
		// one (scenario, side, defenses) cell.
		for r := 0; r < g.replicates; r++ {
			var live [2]*chaos.LiveReport
			for i, on := range []bool{false, true} {
				chk := invariant.New(reg)
				rep, err := chaos.RunLive(cfg, scn, on, chk)
				if err != nil {
					return fmt.Errorf("chaos %s live defenses=%v: %w", scn.Name, on, err)
				}
				fmt.Printf("  live defenses=%-5v cluster hit %.3f (delta %+.4f)  members up %d/%d\n",
					on, rep.ClusterHit, rep.ClusterHit-rep.HitRatio, rep.MembersUp, rep.Members)
				if err := rep.CheckCluster(); err != nil {
					return fmt.Errorf("chaos %s live defenses=%v: %w", scn.Name, on, err)
				}
				live[i] = rep
			}
			row.AddLive(live[0], live[1])
			if scn.Name == "slow-peer" {
				if err := slowPeerGate(live[0], live[1], row.Replicates[r]); err != nil {
					return err
				}
			}
		}
		sides := []bool{false}
		if chaos.SimDefended(scn) {
			sides = append(sides, true)
		}
		for _, on := range sides {
			chk := invariant.New(reg)
			rep, err := chaos.RunSim(cfg, scn, on, chk)
			if err != nil {
				return fmt.Errorf("chaos %s sim defenses=%v: %w", scn.Name, on, err)
			}
			if on {
				row.SimOn = rep
			} else {
				row.SimOff = rep
			}
		}

		fmt.Printf("  live: hit %.3f -> %.3f  p99 %7.1fms -> %7.1fms  p999 %7.1fms -> %7.1fms  errors %d -> %d\n",
			row.LiveOff.HitRatio, row.LiveOn.HitRatio, row.LiveOff.P99Ms, row.LiveOn.P99Ms,
			row.LiveOff.P999Ms, row.LiveOn.P999Ms, row.LiveOff.Errors, row.LiveOn.Errors)
		fmt.Printf("  %d replicates: p99 cut %s  p999 cut %s  price %s\n", len(row.Replicates),
			cutSpread(row.Spread(p99Cut)), cutSpread(row.Spread(p999Cut)), priceSpread(row.Spread(defensePrice)))
		fmt.Printf("  slo:  fast burn")
		for _, class := range []string{chaos.Interactive.Name, chaos.Batch.Name} {
			fmt.Printf("  %s %.2f -> %.2f", class, row.LiveOff.FastBurn(class), row.LiveOn.FastBurn(class))
		}
		fmt.Println()
		if row.SimOn != nil {
			fmt.Printf("  sim:  hit %.3f -> %.3f  mean %6.3f -> %6.3f  p999 %6.1f -> %6.1f (model units as ms)\n",
				row.SimOff.HitRatio, row.SimOn.HitRatio,
				row.SimOff.MeanMs, row.SimOn.MeanMs, row.SimOff.P999Ms, row.SimOn.P999Ms)
		} else {
			fmt.Printf("  sim:  hit %.3f  mean %6.3f  p999 %6.1f (model units as ms; no defense modeled)\n",
				row.SimOff.HitRatio, row.SimOff.MeanMs, row.SimOff.P999Ms)
		}
		fmt.Printf("  defense activity (on): breaker-skipped %d, digests %d/%d failed, swept %d, timeouts %d\n",
			row.LiveOn.Defense.BreakerSkipped,
			row.LiveOn.Defense.DigestFailures, row.LiveOn.Defense.DigestChecks,
			row.LiveOn.Defense.ContribSwept, row.LiveOn.Defense.PeerTimeouts)
		if v := row.Violations(); v > 0 {
			return fmt.Errorf("chaos %s: %d conservation violations — an attack or a defense broke the accountant",
				scn.Name, v)
		}
		rows = append(rows, row)
	}

	printResolution(rows)
	return g.finish(tr, reg, map[string]any{
		"requests":         g.requests,
		"objects":          g.objects,
		"clients":          g.clients,
		"proxies":          g.proxies,
		"caches_per_proxy": g.caches,
		"object_bytes":     g.objectBytes,
		"rate":             g.rate,
		"seed":             chaos.Seed,
		"replicates":       g.replicates,
	}, map[string]any{"scenarios": rows})
}

// slowPeerGate is the headline gate, on each slow-peer replicate: under
// slow peers the per-hop deadlines and strike sweeps must actually cut
// the interactive burn and the live tail, and not pay for it with more
// than chaos.MaxDefensePrice of the hit ratio.
func slowPeerGate(off, on *chaos.LiveReport, rep chaos.Replicate) error {
	offBurn, onBurn := off.FastBurn(chaos.Interactive.Name), on.FastBurn(chaos.Interactive.Name)
	if onBurn >= offBurn {
		return fmt.Errorf("chaos slow-peer: defenses did not cut the %s fast burn (off %.2f, on %.2f)",
			chaos.Interactive.Name, offBurn, onBurn)
	}
	fmt.Printf("chaos: slow-peer %s fast burn cut %.2f -> %.2f, defense price %.4f hit ratio (gate <= %.2f)\n",
		chaos.Interactive.Name, offBurn, onBurn, rep.DefensePrice, chaos.MaxDefensePrice)
	if rep.DefensePrice > chaos.MaxDefensePrice {
		return fmt.Errorf("chaos slow-peer: defenses cost %.4f of the live hit ratio (%.3f -> %.3f), gate allows %.2f",
			rep.DefensePrice, off.HitRatio, on.HitRatio, chaos.MaxDefensePrice)
	}
	if rep.P999Cut < chaos.MinP999Cut {
		return fmt.Errorf("chaos slow-peer: defenses cut p999 only %.2fx (off %.1fms / on %.1fms), gate requires >= %.2fx",
			rep.P999Cut, off.P999Ms, on.P999Ms, chaos.MinP999Cut)
	}
	fmt.Printf("chaos: slow-peer p999 cut %.2fx >= %.2fx gate\n", rep.P999Cut, chaos.MinP999Cut)
	return nil
}

func p99Cut(x chaos.Replicate) float64       { return x.P99Cut }
func p999Cut(x chaos.Replicate) float64      { return x.P999Cut }
func defensePrice(x chaos.Replicate) float64 { return x.DefensePrice }

func cutSpread(s chaos.Spread) string {
	return fmt.Sprintf("%.2fx [%.2f, %.2f]", s.Median, s.Min, s.Max)
}

func priceSpread(s chaos.Spread) string {
	return fmt.Sprintf("%+.4f [%+.4f, %+.4f]", s.Median, s.Min, s.Max)
}

// printResolution prints every row's resolution: a median cut or price
// inside the baseline row's range, the noise floor, is unresolved.
// Without the baseline row there is no floor to hold them to.
func printResolution(rows []chaos.Row) {
	var floor *chaos.Row
	for i := range rows {
		if rows[i].Scenario == "baseline" {
			floor = &rows[i]
		}
	}
	if floor == nil {
		fmt.Println("chaos: resolution: the baseline row did not run, so no row's cut or price is held to a noise floor")
		return
	}
	fmt.Printf("chaos: resolution against the baseline's range over %d replicates (p99 cut %s, p999 cut %s, price %s)\n",
		len(floor.Replicates), cutSpread(floor.Spread(p99Cut)), cutSpread(floor.Spread(p999Cut)), priceSpread(floor.Spread(defensePrice)))
	for _, row := range rows {
		if row.Scenario == "baseline" {
			fmt.Printf("  %-26s the noise floor\n", row.Scenario)
			continue
		}
		fmt.Printf("  %-26s", row.Scenario)
		for _, st := range []struct {
			name string
			stat func(chaos.Replicate) float64
		}{{"p99 cut", p99Cut}, {"p999 cut", p999Cut}, {"price", defensePrice}} {
			verdict := "unresolved"
			if row.Spread(st.stat).Resolved(floor.Spread(st.stat)) {
				verdict = "resolved"
			}
			fmt.Printf("  %s %s", st.name, verdict)
		}
		fmt.Println()
	}
}

// chaosScenarios resolves the -chaos-scenarios list (empty = suite).
func chaosScenarios(list string) ([]chaos.Scenario, error) {
	if strings.TrimSpace(list) == "" {
		return chaos.Scenarios(), nil
	}
	var out []chaos.Scenario
	for _, name := range strings.Split(list, ",") {
		scn, err := chaos.Lookup(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, scn)
	}
	return out, nil
}
