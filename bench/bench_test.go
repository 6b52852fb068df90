package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"webcache/internal/httpcache"
)

func TestPercentileAgainstSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 1000
		}
		ref := append([]float64(nil), xs...)
		sort.Float64s(ref)
		for _, p := range []float64{50, 90, 99, 99.9, 100} {
			// Reference: the smallest sample with at least p% at or below it.
			want := ref[n-1]
			for i, v := range ref {
				if float64(i+1)/float64(n)*100 >= p-1e-9 {
					want = v
					break
				}
			}
			if got := percentile(append([]float64(nil), xs...), p); got != want {
				t.Errorf("n=%d p=%g: got %g, want %g", n, p, got, want)
			}
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample: got %g, want 0", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([2, 4, 4, 5, 7, 9], n=4) == [3.5, 4.5, 7.5]
	q1, q3 = quartiles([]float64{2, 4, 4, 5, 7, 9})
	if q1 != 3.5 || q3 != 7.5 {
		t.Errorf("quartiles = %g, %g; want 3.5, 7.5", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestSelfTimeSubtractsNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "client", Start: 0, End: 100, Req: "a"},
		{Name: "fetch", Parent: "client", Start: 10, End: 90, Req: "a"},
		// Children of fetch: two that overlap, one nested in the first,
		// one that runs past the parent's end.
		{Name: "object", Parent: "fetch", Start: 20, End: 40, Req: "a"},
		{Name: "object", Parent: "fetch", Start: 30, End: 50, Req: "a"},
		{Name: "object", Parent: "fetch", Start: 25, End: 35, Req: "a"},
		{Name: "peer", Parent: "fetch", Start: 80, End: 120, Req: "a"},
		// Another request's child must not be subtracted, nor one
		// without a request id.
		{Name: "object", Parent: "fetch", Start: 10, End: 90, Req: "b"},
		{Name: "store", Parent: "fetch", Start: 10, End: 90},
	}
	self := selfTimes(spans)
	want := []int64{20, 40, 20, 20, 10, 40, 80, 80}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
	agg := aggregateSpans(spans)
	if got := agg["object"]; got.calls != 4 || got.busyNs != 20+20+10+80 {
		t.Errorf("object aggregate = %+v", got)
	}
	if got := agg["fetch"].selfMeanUs(); got != 0.04 {
		t.Errorf("fetch self mean = %g us, want 0.04", got)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestCatalogueNamesAndManifest(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("bad name or unit: %q %q", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("duplicate metric %s", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why (%d chars)", w.name, len(w.why))
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the manifest limits", len(perLayer), len(endToEnd))
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		// A bound is never tighter than what the ISSUE asked for.
		if d.Issue <= 0 || d.Issue > d.Bound {
			t.Errorf("%s: the ISSUE's bound %g outside (0, %g]", d.Name, d.Issue, d.Bound)
		}
	}
	// BENCHMARK.json at the root is the catalogue, verbatim.
	var want bytes.Buffer
	if err := printManifest(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("../BENCHMARK.json differs from the catalogue: regenerate it with `go run . -manifest`")
	}
	// README.md documents every metric and workload by name.
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for name := range seen {
		if !bytes.Contains(readme, []byte("`"+name+"`")) {
			t.Errorf("README.md does not list metric %s", name)
		}
	}
	for _, w := range workloads {
		if !bytes.Contains(readme, []byte("`"+w.name+"`")) {
			t.Errorf("README.md does not list workload %s", w.name)
		}
	}
	if heldOutSeed == defaultSeed {
		t.Error("the held-out seed must differ from the default one")
	}
	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		for _, w := range []string{"sim_compare", "sim_churn"} {
			if g, err := loadGolden("", w, seed); err != nil || g == nil {
				t.Errorf("no committed golden for %s seed %d (err %v)", w, seed, err)
			}
		}
	}
}

// smokeOptions is a 1/100-scale run that writes under the test's temp
// directory.
func smokeOptions(t *testing.T, workload string, traced bool) options {
	return options{workload: workload, seed: defaultSeed, seconds: 0.05, traced: traced,
		scale: 0.01, outDir: t.TempDir()}
}

// lastLine parses the result object a run printed last.
func lastLine(t *testing.T, out []byte) jsonResult {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res jsonResult
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not a result object: %v\n%s", err, lines[len(lines)-1])
	}
	return res
}

// TestSmokeEveryWorkload runs each workload at 1/100 scale; -short
// skips the traced half, which leaves about two seconds.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if traced && testing.Short() {
				continue
			}
			var buf bytes.Buffer
			if err := runOne(smokeOptions(t, w.name, traced), &buf); err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.name, traced, err, buf.String())
			}
			res := lastLine(t, buf.Bytes())
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d metrics=%d, want %d metrics",
					w.name, traced, res.Correct, res.Attempted, res.Failed, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", w.name, traced, d.Name, m, ok)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.name, d.Name, m.Value)
				}
			}
			if traced && res.Metrics["error_share"].Value != 0 {
				t.Errorf("%s: error_share = %g on a right run", w.name, res.Metrics["error_share"].Value)
			}
			// The traced/untraced pairs behind bench.trace_overhead replay
			// the workload's own schemes, not all eight.
			if want := 2 * len(simChurn.Schemes) * simChurn.scaled(0.01).Requests; traced && w.name == "sim_churn" && res.Attempted != want {
				t.Errorf("sim_churn traced: %d requests attempted, want %d (one pair of passes over its two schemes)", res.Attempted, want)
			}
			// The object round-trips.
			blob, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var back jsonResult
			if err := json.Unmarshal(blob, &back); err != nil || len(back.Metrics) != len(res.Metrics) {
				t.Errorf("%s: result does not round-trip: %v", w.name, err)
			}
		}
	}
}

func TestSameSeedSameInputsAndDecisions(t *testing.T) {
	run := func(seed int64) (string, any) {
		o := smokeOptions(t, "sim_churn", false)
		o.seed = seed
		out, err := runSim(simChurn.scaled(o.scale), o)
		if err != nil {
			t.Fatal(err)
		}
		return out.fingerprint, out.record["digests"]
	}
	fp1, d1 := run(5)
	fp2, d2 := run(5)
	fp3, _ := run(6)
	j1, _ := json.Marshal(d1)
	j2, _ := json.Marshal(d2)
	if fp1 != fp2 || !bytes.Equal(j1, j2) {
		t.Errorf("seed 5 twice: fingerprints %s %s, digests %s %s", fp1, fp2, j1, j2)
	}
	if fp1 == fp3 {
		t.Errorf("seeds 5 and 6 gave the same trace %s", fp1)
	}
}

func TestWrongGoldenFailsTheRun(t *testing.T) {
	o := smokeOptions(t, "sim_churn", false)
	sz := simChurn.scaled(o.scale)
	out, err := runSim(sz, o)
	if err != nil {
		t.Fatal(err)
	}
	g := golden{Workload: sz.Name, Seed: o.seed, Sizes: sz, Fingerprint: out.fingerprint,
		Digests: out.record["digests"].(map[string]string)}
	write := func() {
		blob, _ := json.Marshal(g)
		if err := os.WriteFile(filepath.Join(o.goldenDir, goldenName(sz.Name, o.seed)), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	o.goldenDir = t.TempDir()
	write()
	var buf bytes.Buffer
	if err := runOne(o, &buf); err != nil {
		t.Fatalf("right golden rejected: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), `"golden_checked":true`) {
		t.Errorf("the golden was not consulted:\n%s", buf.String())
	}
	g.Digests["hier-gd"] = strings.Repeat("0", 64)
	write()
	buf.Reset()
	if err := runOne(o, &buf); err == nil {
		t.Fatalf("wrong golden accepted:\n%s", buf.String())
	}
	if res := lastLine(t, buf.Bytes()); res.Correct || res.Failed == 0 {
		t.Errorf("wrong golden: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// everyNth applies corrupt to every n-th /fetch reply.
func everyNth(n int, corrupt func(http.ResponseWriter) http.ResponseWriter) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		var count atomic.Int64
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/fetch" && count.Add(1)%int64(n) == 0 {
				w = corrupt(w)
			}
			h.ServeHTTP(w, r)
		})
	}
}

type halfBody struct{ http.ResponseWriter }

func (h halfBody) Write(p []byte) (int, error) {
	_, err := h.ResponseWriter.Write(p[:len(p)/2])
	return len(p), err
}

type bogusTier struct{ http.ResponseWriter }

func (b bogusTier) Write(p []byte) (int, error) {
	b.Header().Set(httpcache.ServedByHeader, "the-moon")
	return b.ResponseWriter.Write(p)
}

func TestBrokenRepliesFailTheRun(t *testing.T) {
	for name, corrupt := range map[string]func(http.ResponseWriter) http.ResponseWriter{
		"truncated body": func(w http.ResponseWriter) http.ResponseWriter { return halfBody{w} },
		"unknown tier":   func(w http.ResponseWriter) http.ResponseWriter { return bogusTier{w} },
	} {
		o := smokeOptions(t, "live_hit", false)
		o.fault = everyNth(40, corrupt)
		if err := runOne(o, io.Discard); err == nil {
			t.Errorf("%s: the run passed", name)
		}
	}
}
