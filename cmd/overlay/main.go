// Command overlay inspects the Pastry overlay that underlies the P2P
// client cache: it builds a ring, measures routing hop distributions,
// and exercises failure handling — the substrate behind the paper's
// "⌈log_2^b N⌉ hops" claim (§4.1).
//
// Usage:
//
//	overlay -nodes 1024 -routes 10000          # hop statistics
//	overlay -nodes 256 -fail 0.3 -routes 5000  # with 30% crashed nodes
//	overlay -nodes 256 -fail 0.3 -stabilize    # ... plus a repair round
//	overlay -nodes 64 -b 2 -verify             # verify routing vs ground truth
//	overlay -nodes 512 -diagnose               # table/leaf-set health report
//	overlay -nodes 512 -proximity              # proximity-aware tables (stretch)
//
// -l sets the leaf-set size and -seed the RNG seed.  Observability:
// -progress paints a live routing progress line, -metrics dumps the
// metric registry, -manifest writes a run-manifest JSON document, and
// -cpuprofile/-memprofile capture pprof profiles (see METRICS.md).
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"

	"webcache/internal/obs"
	"webcache/internal/pastry"
)

func main() {
	if _, err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "overlay:", err)
		os.Exit(1)
	}
}

// run executes one overlay inspection and returns the registry it
// populated (nil unless -metrics/-manifest asked for one), so tests —
// the METRICS.md doc-drift check in particular — can hold the
// registered names against the documented overlay.* namespace.
func run(args []string) (reg *obs.Registry, err error) {
	fs := flag.NewFlagSet("overlay", flag.ContinueOnError)
	var (
		nodes     = fs.Int("nodes", 1024, "overlay size (the paper's client cluster size)")
		b         = fs.Int("b", 4, "Pastry digit width in bits (1, 2, 4, 8)")
		leafs     = fs.Int("l", 16, "leaf set size")
		routes    = fs.Int("routes", 10_000, "number of random routes to measure")
		fail      = fs.Float64("fail", 0, "fraction of nodes to crash before routing")
		seed      = fs.Int64("seed", 1, "random seed")
		verify    = fs.Bool("verify", false, "check every route against the ground-truth owner")
		stabilize = fs.Bool("stabilize", false, "run a maintenance round after failures")
		diagnose  = fs.Bool("diagnose", false, "print overlay health diagnostics")
		proximity = fs.Bool("proximity", false, "proximity-aware routing tables (report stretch)")
	)
	sess := obs.NewSession(fs, "overlay")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := sess.Start(); err != nil {
		return nil, err
	}
	defer func() {
		if cerr := sess.Close(); err == nil {
			err = cerr
		}
	}()
	reg = sess.Reg
	for k, v := range map[string]any{
		"nodes": *nodes, "b": *b, "l": *leafs, "routes": *routes,
		"fail": *fail, "seed": *seed, "stabilize": *stabilize,
		"proximity": *proximity,
	} {
		sess.SetConfig(k, v)
	}

	ov, err := pastry.New(pastry.Config{B: *b, LeafSetSize: *leafs, Seed: *seed, ProximityAware: *proximity})
	if err != nil {
		return reg, err
	}
	ids, err := ov.JoinN(*nodes, "overlay-cli")
	if err != nil {
		return reg, err
	}
	fmt.Printf("built overlay: %d nodes, b=%d (%d-ary digits), leaf set %d\n",
		ov.Len(), *b, 1<<*b, *leafs)

	if *fail >= 1 {
		// A fraction of 1+ would crash the whole ring and the kill loop
		// below could never finish; at least one node must survive.
		return reg, fmt.Errorf("-fail %v: must be a fraction in [0, 1)", *fail)
	}
	if *fail > 0 {
		rng := rand.New(rand.NewSource(*seed + 1))
		toKill := int(*fail * float64(len(ids)))
		killed := 0
		for killed < toKill {
			if ov.Fail(ids[rng.Intn(len(ids))]) {
				killed++
			}
		}
		fmt.Printf("crashed %d nodes abruptly; %d remain\n", killed, ov.Len())
		if *stabilize {
			repairs := ov.Stabilize()
			fmt.Printf("stabilization round repaired %d state entries\n", repairs)
		}
	}

	step, finishProgress := sess.Progress("routing")
	hist := map[int]int{}
	mismatches := 0
	for i := 0; i < *routes; i++ {
		key := pastry.HashString(fmt.Sprintf("key-%d", i))
		dest, hops, err := ov.Route(key)
		if err != nil {
			return reg, err
		}
		hist[hops]++
		if *verify {
			if want, ok := ov.Owner(key); ok && want != dest {
				mismatches++
			}
		}
		if step != nil {
			step(i+1, *routes)
		}
	}
	finishProgress()

	st := ov.Stats()
	reg.Counter("overlay.nodes").Add(int64(ov.Len()))
	bound := math.Ceil(math.Log(float64(ov.Len())) / math.Log(float64(int(1)<<*b)))
	fmt.Printf("\nroutes: %d   mean hops: %.2f   max: %d   log_%d(N) bound: %.0f\n",
		st.Routes, st.MeanHops, st.MaxHops, 1<<*b, bound)
	if *proximity {
		fmt.Printf("mean route stretch over the network plane: %.2f\n", st.MeanStretch)
	}
	if *diagnose {
		d := ov.Diagnose()
		fmt.Printf("\ndiagnostics: nodes=%d tableFill(mean=%.1f min=%d max=%d) leafFill=%.1f completeLeafSets=%d violations=%d\n",
			d.Nodes, d.MeanTableFill, d.MinTableFill, d.MaxTableFill, d.MeanLeafFill, d.CompleteLeafSets, d.Violations)
	}
	if st.Repairs > 0 {
		fmt.Printf("lazy repairs while routing: %d\n", st.Repairs)
	}
	fmt.Println("\nhop histogram:")
	maxHop := 0
	for h := range hist {
		if h > maxHop {
			maxHop = h
		}
	}
	for h := 0; h <= maxHop; h++ {
		n := hist[h]
		bar := ""
		for j := 0; j < 60*n / *routes; j++ {
			bar += "#"
		}
		fmt.Printf("  %2d hops  %6d  %s\n", h, n, bar)
	}

	if *verify {
		if mismatches == 0 {
			fmt.Println("\nverification: every route reached the ground-truth owner")
		} else {
			return reg, fmt.Errorf("verification: %d/%d routes missed the owner", mismatches, *routes)
		}
	}
	return reg, nil
}
