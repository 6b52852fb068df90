package httpcache

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"webcache/internal/obs"
	"webcache/internal/obs/slo"
)

func probe(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// eventBuf is a daemon's JSONL event log as a test reads it: safe to
// read while the daemon writes.
type eventBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (e *eventBuf) Write(p []byte) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.b.Write(p)
}

// count returns how many events of type typ the log holds.
func (e *eventBuf) count(typ string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return strings.Count(e.b.String(), `"type":"`+typ+`"`)
}

// TestHealthReadiness walks a daemon through its lifecycle: not ready
// at boot, ready after MarkReady, draining during shutdown — with
// /healthz answering 200 throughout.
func TestHealthReadiness(t *testing.T) {
	var events eventBuf
	d := deployWith(t, 1, 1,
		func(int) Options { return Options{CapacityBytes: 1 << 20, Events: obs.NewEventLog("proxy-0", &events)} },
		func(int, int) Options { return Options{CapacityBytes: 1 << 20} })
	base := d.proxyS[0].URL
	p := d.proxies[0]

	if code, _ := probe(t, base+"/healthz"); code != 200 {
		t.Fatalf("healthz at boot = %d", code)
	}
	if code, body := probe(t, base+"/readyz"); code != 503 || body != "starting\n" {
		t.Fatalf("readyz at boot = %d %q", code, body)
	}
	if p.Ready() {
		t.Fatal("Ready() true before MarkReady")
	}

	p.MarkReady()
	if code, _ := probe(t, base+"/readyz"); code != 200 {
		t.Fatalf("readyz after MarkReady = %d", code)
	}
	if !p.Ready() {
		t.Fatal("Ready() false after MarkReady")
	}

	p.MarkDraining()
	if code, body := probe(t, base+"/readyz"); code != 503 || body != "draining\n" {
		t.Fatalf("readyz while draining = %d %q", code, body)
	}
	if code, _ := probe(t, base+"/healthz"); code != 200 {
		t.Fatalf("healthz while draining = %d", code)
	}
	if p.Ready() {
		t.Fatal("Ready() true while draining")
	}

	if up, drain := events.count("ready.up"), events.count("ready.drain"); up != 1 || drain != 1 {
		t.Fatalf("readiness events: %d ready.up, %d ready.drain, want 1 each", up, drain)
	}

	// The client-cache daemon carries the same surface.
	if code, _ := probe(t, d.cacheS[0][0].URL+"/healthz"); code != 200 {
		t.Fatalf("cache healthz = %d", code)
	}
	d.caches[0][0].MarkReady()
	if code, _ := probe(t, d.cacheS[0][0].URL+"/readyz"); code != 200 {
		t.Fatalf("cache readyz = %d", code)
	}
}

// TestProxySLOAccounting drives tagged fetches through a proxy and
// asserts the per-class ledger: tagged requests land on their class,
// untagged and unknown ones fold into the first.
func TestProxySLOAccounting(t *testing.T) {
	d := deployWith(t, 1, 1, func(int) Options {
		return Options{CapacityBytes: 1 << 20, SLOClasses: []slo.Class{
			{Name: "interactive", Latency: 5 * time.Second, Availability: 0.99, Window: time.Minute},
			{Name: "batch", Latency: 5 * time.Second, Availability: 0.9, Window: time.Minute},
		}}
	}, func(int, int) Options { return Options{CapacityBytes: 1 << 20} })
	tr := d.proxies[0].slo

	get := func(path string, hdr map[string]string) {
		t.Helper()
		req, _ := http.NewRequest("GET", d.proxyS[0].URL+"/fetch?url="+d.origin.srv.URL+path, nil)
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	get("/a", map[string]string{SLOHeader: "interactive"})
	get("/b", map[string]string{SLOHeader: "interactive"})
	get("/c", map[string]string{SLOHeader: "batch"})
	get("/d", nil)                                     // untagged: folds into first class
	get("/f", map[string]string{SLOHeader: "unknown"}) // unknown: folds into first class

	reports := tr.Report()
	byName := map[string]slo.ClassReport{}
	for _, r := range reports {
		byName[r.Class.Name] = r
	}
	if got := byName["interactive"].Requests; got != 4 {
		t.Fatalf("interactive requests = %d, want 4 (2 tagged + untagged + unknown)", got)
	}
	if got := byName["batch"].Requests; got != 1 {
		t.Fatalf("batch requests = %d, want 1", got)
	}
	if byName["interactive"].Bad != 0 {
		t.Fatalf("healthy fetches spent budget: %+v", byName["interactive"])
	}
}
