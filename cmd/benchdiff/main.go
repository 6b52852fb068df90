// Command benchdiff compares two run-manifest JSON documents (the
// -manifest output of webcachesim and hiergdd bench) metric by metric:
// what changed, by how much, and what exists on one side only.
//
// Usage:
//
//	benchdiff a.json b.json            # refuse mismatched workloads
//	benchdiff -force a.json b.json     # diff across different traces
//	benchdiff -json a.json b.json      # machine-readable diff
//
// Two manifests are comparable only when their schema version and
// workload fingerprint agree; -force overrides the fingerprint check
// (never the schema check).  It is an operator's tool: run a gate at
// two commits with the same flags, then diff the two manifests.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"webcache/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	force := fs.Bool("force", false, "diff even when the workload fingerprints differ")
	jsonOut := fs.Bool("json", false, "emit the diff as JSON instead of a table")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: benchdiff [-force] [-json] a.json b.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return fmt.Errorf("need exactly two manifest files, got %d", fs.NArg())
	}
	a, err := obs.ReadManifestFile(fs.Arg(0))
	if err != nil {
		return fmt.Errorf("%s: %w", fs.Arg(0), err)
	}
	b, err := obs.ReadManifestFile(fs.Arg(1))
	if err != nil {
		return fmt.Errorf("%s: %w", fs.Arg(1), err)
	}
	d, err := obs.DiffManifests(a, b, *force)
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(d)
	}
	fmt.Print(d.String())
	return nil
}
