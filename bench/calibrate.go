package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// calibrationRuns is how many runs of one seed, self against self, the
// noise of a workload is estimated from.
const calibrationRuns = 10

// noiseStat is one end-to-end metric's spread over the calibration
// runs: the quartile distance as a share of the median is what must
// stay inside the metric's bound.  Resolved says whether it also stays
// inside the bound ISSUE 12 asked for: where it does not, a difference
// smaller than Bound on this workload is unresolved, not "no change".
type noiseStat struct {
	Unit       string    `json:"unit"`
	Median     float64   `json:"median"`
	Q1         float64   `json:"q1"`
	Q3         float64   `json:"q3"`
	IQRShare   float64   `json:"iqr_share"`
	Bound      float64   `json:"bound"`
	Within     bool      `json:"within_bound"`
	IssueBound float64   `json:"issue_bound"`
	Resolved   bool      `json:"resolved_at_issue_bound"`
	Values     []float64 `json:"values"`
}

type noiseFile struct {
	Runs       int                             `json:"runs"`
	Seconds    float64                         `json:"seconds"`
	Seed       int64                           `json:"seed"`
	NProc      int                             `json:"nproc"`
	GoMaxProcs int                             `json:"gomaxprocs"`
	GoVersion  string                          `json:"go_version"`
	Commit     string                          `json:"commit"`
	Workloads  map[string]map[string]noiseStat `json:"workloads"`
}

// runCalibrate runs every workload calibrationRuns times on the same
// seed, each run a fresh process, and writes the spreads to noise.json
// in the current directory: the inputs are identical, so what varies is
// the measurement.  A spread outside its bound is an error: the remedy
// is a longer run, not a wider bound.
func runCalibrate(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	nf := noiseFile{
		Runs: calibrationRuns, Seconds: o.seconds, Seed: o.seed,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
		Workloads: map[string]map[string]noiseStat{},
	}
	outside := 0
	for _, w := range workloads {
		values := map[string][]float64{}
		for i := 0; i < calibrationRuns; i++ {
			res, err := runChild(self, w.name, o)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.name, i, err)
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "calibrate: %s run %d done\n", w.name, i)
		}
		stats := map[string]noiseStat{}
		for _, d := range endToEnd {
			vs := values[d.Name]
			q1, q3 := quartiles(append([]float64(nil), vs...))
			med := median(vs)
			st := noiseStat{Unit: d.Unit, Median: med, Q1: q1, Q3: q3, Bound: d.Bound, IssueBound: d.Issue, Values: vs}
			if med != 0 {
				st.IQRShare = (q3 - q1) / med
			}
			// setup_s is judged on its medians only, not its spread.
			st.Within = st.IQRShare <= d.Bound || d.Name == "setup_s"
			st.Resolved = st.IQRShare <= d.Issue
			if !st.Within {
				outside++
			}
			stats[d.Name] = st
			verdict := "resolved at the ISSUE's"
			if !st.Resolved {
				verdict = "UNRESOLVED at the ISSUE's"
			}
			fmt.Printf("%-13s %-15s median %14.6g  iqr/median %6.2f%%  bound %4.0f%%  %s %g%%\n",
				w.name, d.Name, med, 100*st.IQRShare, 100*d.Bound, verdict, 100*d.Issue)
		}
		nf.Workloads[w.name] = stats
	}
	blob, err := json.MarshalIndent(nf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("noise.json", append(blob, '\n'), 0o644); err != nil {
		return err
	}
	if outside > 0 {
		return fmt.Errorf("%d metric spreads are outside their bounds: lengthen the run", outside)
	}
	return nil
}

// runChild runs one workload in a fresh process and parses its last
// line.
func runChild(self, workload string, o options) (*jsonResult, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", "0", "-out", o.outDir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res jsonResult
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("incorrect run")
	}
	return &res, nil
}
