// Workload-sensitivity study: how the benefit of exploiting client
// caches depends on workload shape — the intuition behind the paper's
// Figures 3 and 4, condensed into one runnable table.
//
// Sweeps the Zipf popularity exponent (alpha), the temporal-locality
// stack size, and the one-timer fraction, reporting SC-EC and Hier-GD
// gains at one mid-range proxy cache size.  Each table ends with the
// direction its gains moved, computed from its own rows.
package main

import (
	"fmt"
	"log"

	"webcache"
)

func gainFor(tr *webcache.Trace, s webcache.Scheme, frac float64) float64 {
	nc, err := webcache.Run(tr, webcache.Config{Scheme: webcache.NC, ProxyCacheFrac: frac, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	res, err := webcache.Run(tr, webcache.Config{Scheme: s, ProxyCacheFrac: frac, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	return webcache.Gain(res.AvgLatency, nc.AvgLatency)
}

func makeTrace(alpha, stack, oneTimers float64) *webcache.Trace {
	tr, err := webcache.GenerateWorkload(webcache.WorkloadConfig{
		NumRequests:  120_000,
		NumObjects:   1_500,
		NumClients:   200,
		OneTimerFrac: oneTimers,
		Alpha:        alpha,
		StackFrac:    stack,
		Seed:         11,
	})
	if err != nil {
		log.Fatal(err)
	}
	return tr
}

// sweep prints one table of SC-EC and Hier-GD gains, a row per setting
// of one workload knob, then the direction each gain moved from the
// first setting to the last, read off the rows themselves.
func sweep(title, knob string, labels []string, mk func(i int) *webcache.Trace) {
	const frac = 0.5 // mid-range cache size, where the paper's sensitivity directions are clearest
	fmt.Printf("== %s ==\n", title)
	fmt.Printf("%-12s %10s %10s\n", knob, "SC-EC", "Hier-GD")
	var scec, hgd []float64
	for i, label := range labels {
		tr := mk(i)
		scec = append(scec, 100*gainFor(tr, webcache.SCEC, frac))
		hgd = append(hgd, 100*gainFor(tr, webcache.HierGD, frac))
		fmt.Printf("%-12s %9.1f%% %9.1f%%\n", label, scec[i], hgd[i])
	}
	last := len(labels) - 1
	fmt.Printf("From %s %s to %s, SC-EC's gain %s (%.1f%% -> %.1f%%) and Hier-GD's %s (%.1f%% -> %.1f%%).\n",
		knob, labels[0], labels[last],
		trend(scec[0], scec[last]), scec[0], scec[last],
		trend(hgd[0], hgd[last]), hgd[0], hgd[last])
}

// trend names the way a gain moved, to the table's printed precision.
func trend(from, to float64) string {
	switch d := to - from; {
	case d >= 0.05:
		return "rises"
	case d <= -0.05:
		return "falls"
	}
	return "holds"
}

func main() {
	alphas := []float64{0.5, 0.7, 1.0}
	sweep("Popularity skew (Figure 3's knob): smaller alpha = bigger working set", "alpha",
		[]string{"0.5", "0.7", "1.0"}, func(i int) *webcache.Trace { return makeTrace(alphas[i], 0.2, 0.5) })

	stacks := []float64{0.05, 0.20, 0.60}
	fmt.Println()
	sweep("Temporal locality (Figure 4's knob): LRU stack size", "stack",
		[]string{"5%", "20%", "60%"}, func(i int) *webcache.Trace { return makeTrace(0.7, stacks[i], 0.5) })

	oneTimers := []float64{0.3, 0.5, 0.7}
	fmt.Println()
	sweep("One-time referencing: objects no cache can help with", "one-timers",
		[]string{"30%", "50%", "70%"}, func(i int) *webcache.Trace { return makeTrace(0.7, 0.2, oneTimers[i]) })
}
