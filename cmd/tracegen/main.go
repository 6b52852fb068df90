// Command tracegen generates, converts, and analyzes request traces
// for the webcache simulator.
//
// Usage:
//
//	tracegen -o trace.bin -requests 1000000 -objects 10000      # ProWGen
//	tracegen -o ucb.bin -ucb -scale 0.1                          # UCB-like
//	tracegen -o dec.bin -preset dec-isp -requests 500000         # trace family
//	tracegen -squid access.log -o corp.bin                       # Squid ingestion
//	tracegen -analyze trace.bin -v                               # stats + locality
//	tracegen -convert trace.bin -o trace.txt -format text        # convert
//
// Observability: -manifest writes a run-manifest JSON document (with
// the generated trace's content fingerprint), and -cpuprofile /
// -memprofile capture pprof profiles (see METRICS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"webcache"
	"webcache/internal/obs"
)

func main() {
	if _, err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// errUsage asks main for a usage dump + non-zero exit.
var errUsage = fmt.Errorf("no mode selected (need -o, -analyze, -convert, or -squid)")

// run executes one tracegen invocation and returns the registry it
// populated (nil without -manifest), so tests — the METRICS.md
// doc-drift check in particular — can hold the registered names
// against the documented tracegen.* namespace.
func run(args []string) (reg *obs.Registry, err error) {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		out       = fs.String("o", "", "output file (required for generation)")
		format    = fs.String("format", "", "output format: binary or text (default by extension: .txt = text)")
		requests  = fs.Int("requests", 1_000_000, "number of requests")
		objects   = fs.Int("objects", 10_000, "number of distinct objects")
		clients   = fs.Int("clients", 200, "client population")
		oneTimers = fs.Float64("one-timers", 0.5, "fraction of one-time-referenced objects")
		alpha     = fs.Float64("alpha", 0.7, "Zipf popularity exponent")
		stack     = fs.Float64("stack", 0.2, "LRU stack fraction (temporal locality)")
		sizes     = fs.Bool("sizes", false, "variable object sizes (lognormal+Pareto)")
		seed      = fs.Int64("seed", 1, "random seed")
		ucb       = fs.Bool("ucb", false, "generate the UCB-like trace instead of ProWGen")
		preset    = fs.String("preset", "", "generate from a workload preset family (webcachesim -presets lists them)")
		scale     = fs.Float64("scale", 1.0, "UCB scale (1.0 = 9.2M requests)")
		analyze   = fs.String("analyze", "", "analyze an existing trace file")
		convert   = fs.String("convert", "", "convert an existing trace file to -o")
		squid     = fs.String("squid", "", "ingest a Squid access.log into -o")
		unitSizes = fs.Bool("unit-sizes", false, "with -squid: force unit object sizes")
		verbose   = fs.Bool("v", false, "with -analyze: temporal-locality and popularity profiles")
	)
	sess := obs.NewSession(fs, "tracegen")
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
		"requests": *requests, "objects": *objects, "clients": *clients,
		"one-timers": *oneTimers, "alpha": *alpha, "stack": *stack,
		"sizes": *sizes, "seed": *seed, "ucb": *ucb, "preset": *preset,
		"scale": *scale, "o": *out,
	} {
		sess.SetConfig(k, v)
	}

	// tr is the produced or analyzed trace the manifest fingerprints.
	var tr *webcache.Trace
	switch {
	case *squid != "":
		if *out == "" {
			return reg, fmt.Errorf("-squid requires -o")
		}
		f, err := os.Open(*squid)
		if err != nil {
			return reg, err
		}
		res, err := webcache.ReadSquidLog(f, webcache.SquidOptions{UnitSize: *unitSizes})
		f.Close()
		if err != nil {
			return reg, err
		}
		if err := writeTrace(*out, *format, res.Trace); err != nil {
			return reg, err
		}
		fmt.Printf("ingested %d/%d log lines (%d skipped): %s\n",
			res.Trace.Len(), res.Lines, res.Skipped, webcache.AnalyzeTrace(res.Trace))
		tr = res.Trace

	case *analyze != "":
		if tr, err = webcache.ReadTraceFile(*analyze); err != nil {
			return reg, err
		}
		st := webcache.AnalyzeTrace(tr)
		fmt.Printf("%s\n", st)
		fmt.Printf("clients=%d objects=%d requests=%d\n", tr.NumClients, tr.NumObjects, tr.Len())
		if *verbose {
			lp := webcache.AnalyzeLocality(tr)
			fmt.Printf("\ntemporal locality (LRU reuse distances):\n")
			fmt.Printf("  cold misses %d, re-references %d\n", lp.ColdMisses, lp.Rereferences)
			fmt.Printf("  distance mean=%.0f median=%d p90=%d p99=%d\n",
				lp.MeanDistance, lp.MedianDistance, lp.Percentile(90), lp.Percentile(99))
			fmt.Printf("  predicted LRU hit ratio: ")
			for _, capacity := range []int{16, 64, 256, 1024, 4096} {
				fmt.Printf("C=%d:%.1f%% ", capacity, 100*lp.LRUHitRatio(capacity))
			}
			fmt.Println()
			fmt.Printf("\npopularity head (rank: references):\n  ")
			for i, f := range webcache.PopularityCurve(tr, 10) {
				fmt.Printf("%d:%d ", i+1, f)
			}
			fmt.Println()
		}

	case *convert != "":
		if *out == "" {
			return reg, fmt.Errorf("-convert requires -o")
		}
		if tr, err = webcache.ReadTraceFile(*convert); err != nil {
			return reg, err
		}
		if err := writeTrace(*out, *format, tr); err != nil {
			return reg, err
		}
		fmt.Printf("wrote %d requests to %s\n", tr.Len(), *out)

	case *out != "":
		if *preset != "" {
			tr, err = webcache.GeneratePresetWorkload(*preset, *requests, *seed)
		} else if *ucb {
			tr, err = webcache.GenerateUCBWorkload(webcache.UCBConfig{Scale: *scale, Seed: *seed})
		} else {
			tr, err = webcache.GenerateWorkload(webcache.WorkloadConfig{
				NumRequests:   *requests,
				NumObjects:    *objects,
				NumClients:    *clients,
				OneTimerFrac:  *oneTimers,
				Alpha:         *alpha,
				StackFrac:     *stack,
				VariableSizes: *sizes,
				Seed:          *seed,
			})
		}
		if err != nil {
			return reg, err
		}
		if err := writeTrace(*out, *format, tr); err != nil {
			return reg, err
		}
		fmt.Printf("wrote %s: %s\n", *out, webcache.AnalyzeTrace(tr))

	default:
		fs.Usage()
		return reg, errUsage
	}

	reg.Counter("tracegen.requests").Add(int64(tr.Len()))
	sess.SetTrace(tr, nil)
	return reg, nil
}

func isText(path, format string) bool {
	if format != "" {
		return strings.EqualFold(format, "text")
	}
	ext := filepath.Ext(path)
	return ext == ".txt" || ext == ".trace"
}

func writeTrace(path, format string, tr *webcache.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if isText(path, format) {
		return webcache.WriteTraceText(f, tr)
	}
	return webcache.WriteTraceBinary(f, tr)
}
