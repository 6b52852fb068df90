package trace

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

const squidSample = `1066036250.129    345 10.0.0.5 TCP_MISS/200 8192 GET http://example.com/a - DIRECT/1.2.3.4 text/html
1066036251.000     12 10.0.0.6 TCP_HIT/200 2048 GET http://example.com/b - NONE/- image/png
1066036252.500    500 10.0.0.5 TCP_MISS/200 4096 GET http://EXAMPLE.com/a - DIRECT/1.2.3.4 text/html
1066036253.000     80 10.0.0.7 TCP_MISS/404 512 GET http://example.com/missing - DIRECT/1.2.3.4 text/html
1066036254.000     90 10.0.0.5 TCP_MISS/200 1024 POST http://example.com/form - DIRECT/1.2.3.4 text/html
1066036255.000     70 10.0.0.6 TCP_MISS/301 100 GET http://example.com/c#frag - DIRECT/1.2.3.4 text/html
`

func TestReadSquidBasic(t *testing.T) {
	res, err := ReadSquid(strings.NewReader(squidSample), SquidOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 6 lines: the 404 and the POST are skipped.
	if res.Lines != 6 || res.Skipped != 2 {
		t.Fatalf("lines=%d skipped=%d", res.Lines, res.Skipped)
	}
	tr := res.Trace
	if tr.Len() != 4 {
		t.Fatalf("requests = %d, want 4", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	// Host case is normalized: EXAMPLE.com/a == example.com/a.
	if len(res.Objects) != 3 {
		t.Fatalf("objects = %v, want 3 distinct", res.Objects)
	}
	if len(res.Clients) != 2 {
		t.Fatalf("clients = %v, want 2 (10.0.0.7's only request was a 404)", res.Clients)
	}
	// Times rebased to the first request.
	if tr.Requests[0].Time != 0 {
		t.Errorf("first time = %d, want 0", tr.Requests[0].Time)
	}
	// 8192 bytes at 1 KB units = 8 units.
	if tr.Requests[0].Size != 8 {
		t.Errorf("size = %d units, want 8", tr.Requests[0].Size)
	}
}

func TestReadSquidUnitSize(t *testing.T) {
	res, err := ReadSquid(strings.NewReader(squidSample), SquidOptions{UnitSize: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Trace.Requests {
		if r.Size != 1 {
			t.Fatalf("unit-size mode produced size %d", r.Size)
		}
	}
}

// Only GET is ingested, whatever its case: a log of POSTs has nothing
// usable, and a lowercase get counts.
func TestReadSquidMethodFilter(t *testing.T) {
	posts := strings.ReplaceAll(squidSample, " GET ", " POST ")
	if _, err := ReadSquid(strings.NewReader(posts), SquidOptions{}); err == nil {
		t.Fatal("a POST-only log was ingested")
	}
	res, err := ReadSquid(strings.NewReader(strings.ReplaceAll(squidSample, " GET ", " get ")), SquidOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Len() != 4 {
		t.Fatalf("lowercase-get len = %d, want 4", res.Trace.Len())
	}
}

func TestReadSquidFragmentStripped(t *testing.T) {
	res, err := ReadSquid(strings.NewReader(squidSample), SquidOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range res.Objects {
		if strings.Contains(u, "#") {
			t.Errorf("fragment survived: %q", u)
		}
	}
}

func TestReadSquidOutOfOrderTimestamps(t *testing.T) {
	log := `100.5 1 c1 TCP_MISS/200 100 GET http://a/1 - D/- t
99.5 1 c2 TCP_MISS/200 100 GET http://a/2 - D/- t
101.0 1 c1 TCP_MISS/200 100 GET http://a/1 - D/- t
`
	res, err := ReadSquid(strings.NewReader(log), SquidOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if err := tr.Validate(); err != nil {
		t.Fatalf("reordered trace invalid: %v", err)
	}
	// The 99.5 entry must replay first.
	if res.Objects[tr.Requests[0].Object] != "http://a/2" {
		t.Errorf("first replayed = %q", res.Objects[tr.Requests[0].Object])
	}
}

func TestReadSquidErrors(t *testing.T) {
	cases := map[string]string{
		"too few fields": "1.0 2 3\n",
		"bad timestamp":  "xx 1 c TCP_MISS/200 10 GET http://a/1 - D/- t\n",
		"bad size":       "1.0 1 c TCP_MISS/200 xx GET http://a/1 - D/- t\n",
		"no usable":      "# only a comment\n",
	}
	for name, in := range cases {
		if _, err := ReadSquid(strings.NewReader(in), SquidOptions{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCacheableStatus(t *testing.T) {
	cases := map[string]bool{
		"TCP_MISS/200":    true,
		"TCP_HIT/304":     true,
		"TCP_MISS/404":    false,
		"TCP_DENIED/403":  false,
		"TCP_MISS/500":    false,
		"NONE":            false,
		"TCP_MISS/":       false,
		"TCP_MISS/abc":    false,
		"UDP_HIT/000":     false,
		"TCP_REFRESH/302": true,
	}
	for in, want := range cases {
		if got := cacheableStatus(in); got != want {
			t.Errorf("cacheableStatus(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestCanonicalURL(t *testing.T) {
	cases := map[string]string{
		"http://EXAMPLE.com/A/B": "http://example.com/A/B",
		"HTTP://Host.com":        "http://host.com",
		"http://h/x#frag":        "http://h/x",
		"nofragment":             "nofragment",
	}
	for in, want := range cases {
		if got := canonicalURL(in); got != want {
			t.Errorf("canonicalURL(%q) = %q, want %q", in, got, want)
		}
	}
}

// A synthesized large log round-trips into a valid, replayable trace
// that the simulator accepts downstream.
func TestReadSquidSynthesizedLog(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var b strings.Builder
	ts := 1_000_000.0
	for i := 0; i < 5000; i++ {
		ts += rng.Float64()
		fmt.Fprintf(&b, "%.3f %d 10.0.%d.%d TCP_MISS/200 %d GET http://site%d.com/obj%d - DIRECT/- text/html\n",
			ts, rng.Intn(1000), rng.Intn(4), rng.Intn(50), 100+rng.Intn(100000),
			rng.Intn(5), rng.Intn(400))
	}
	res, err := ReadSquid(strings.NewReader(b.String()), SquidOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Len() != 5000 {
		t.Fatalf("len = %d", res.Trace.Len())
	}
	if err := res.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
	st := Analyze(res.Trace)
	if st.DistinctObjs != len(res.Objects) || st.DistinctClients != len(res.Clients) {
		t.Errorf("stats disagree with intern tables: %d/%d vs %d/%d",
			st.DistinctObjs, st.DistinctClients, len(res.Objects), len(res.Clients))
	}
}
