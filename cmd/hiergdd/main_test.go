package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"webcache/internal/httpcache"
	"webcache/internal/obs"
)

// serveDaemon must serve requests, then drain and return nil when the
// process receives SIGTERM (the daemons' graceful-shutdown path).
func TestServeDaemonGracefulShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- serveDaemon(ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("ok"))
		}), 2*time.Second, nil, nil)
	}()

	url := fmt.Sprintf("http://%s/", ln.Addr())
	var resp *http.Response
	for i := 0; ; i++ {
		resp, err = http.Get(url)
		if err == nil {
			break
		}
		if i > 50 {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp.Body.Close()

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveDaemon returned %v after SIGTERM, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serveDaemon did not return within 5s of SIGTERM")
	}
	if _, err := http.Get(url); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// The readiness flip must precede the listener close: after SIGTERM,
// /readyz answers 503 "draining" over the still-open listener (the
// drainGrace window routers use to stop sending work), and only then
// does the listener stop accepting.
func TestServeDaemonReadyzFlipsBeforeClose(t *testing.T) {
	oldGrace := drainGrace
	drainGrace = 600 * time.Millisecond
	defer func() { drainGrace = oldGrace }()

	cc := httpcache.NewClientCacheOpts(httpcache.Options{CapacityBytes: 1 << 20})
	cc.MarkReady()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- serveDaemon(ln, cc.Handler(), 2*time.Second, cc.MarkDraining, nil) }()

	base := fmt.Sprintf("http://%s", ln.Addr())
	get := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b := make([]byte, 64)
		n, _ := resp.Body.Read(b)
		return resp.StatusCode, strings.TrimSpace(string(b[:n]))
	}
	for i := 0; ; i++ {
		if resp, err := http.Get(base + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if i > 100 {
			t.Fatal("daemon never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Inside the grace window the listener must still accept, with
	// /readyz flipped to 503 "draining" and /healthz still healthy; a
	// connection error here means the listener closed before the flip.
	deadline := time.Now().Add(drainGrace)
	for {
		code, body := get("/readyz")
		if code == http.StatusServiceUnavailable && body == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz never flipped during the grace window (last %d %q)", code, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d while draining, want 200", code)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveDaemon returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serveDaemon did not return after the drain")
	}
	if _, err := http.Get(base + "/readyz"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// Graceful shutdown with work in flight: a slow request issued before
// SIGTERM must complete within the -drain window, and the shutdown
// flush must then export the trace file (valid Chrome trace-event
// JSON holding the request) and fold the tracer totals into the
// /metrics registry — the daemons' trace/metrics flush path end to end.
func TestServeDaemonDrainFlushesExports(t *testing.T) {
	dir := t.TempDir()
	traceOut := filepath.Join(dir, "trace.json")
	fs := flag.NewFlagSet("proxy", flag.ContinueOnError)
	sess := obs.NewSession(fs, "hiergdd-proxy")
	if err := fs.Parse([]string{"-trace-out", traceOut, "-trace-sample", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Start(); err != nil {
		t.Fatal(err)
	}
	tracer, reg, flush := sess.Tracer, sess.Reg, func() { closeSession(sess) }
	if tracer == nil {
		t.Fatal("tracer not built despite -trace-out")
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := tracer.StartTrace("request", 0)
		sp := st.StartSpan("work", "Tl")
		time.Sleep(250 * time.Millisecond) // still running when SIGTERM lands
		sp.End()
		st.FinishWall("proxy")
		w.Write([]byte("slow-ok"))
	})
	done := make(chan error, 1)
	go func() { done <- serveDaemon(ln, handler, 2*time.Second, nil, flush) }()

	url := fmt.Sprintf("http://%s/", ln.Addr())
	for i := 0; ; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err == nil {
			conn.Close()
			break
		}
		if i > 50 {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Put a slow request in flight, then signal mid-request.
	body := make(chan string, 1)
	fetchErr := make(chan error, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			fetchErr <- err
			return
		}
		defer resp.Body.Close()
		b := make([]byte, 64)
		n, _ := resp.Body.Read(b)
		body <- string(b[:n])
	}()
	time.Sleep(60 * time.Millisecond) // request is inside the handler's sleep
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	select {
	case b := <-body:
		if b != "slow-ok" {
			t.Fatalf("in-flight request body %q, want %q", b, "slow-ok")
		}
	case err := <-fetchErr:
		t.Fatalf("in-flight request failed during drain: %v", err)
	case <-time.After(3 * time.Second):
		t.Fatal("in-flight request did not complete within the drain window")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveDaemon returned %v, want nil", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("serveDaemon did not return after drain")
	}

	// Flush ran after the drain: exports on disk and totals published.
	data, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatalf("chrome export not written: %v", err)
	}
	if err := obs.ValidateChromeTrace(data); err != nil {
		t.Fatalf("chrome export invalid: %v", err)
	}
	// The traced request: its enclosing event and its one span.
	if n := chromeEvents(t, data); n != 2 {
		t.Fatalf("chrome export holds %d events, want the request and its span", n)
	}
	if got := reg.Values()["trace.sampled"]; got != 1 {
		t.Fatalf("trace.sampled = %v after flush, want 1", got)
	}
}

// The demo's script shows every tier of the cascade once, in the order
// its notes promise.
func TestDemoServedByTiers(t *testing.T) {
	tiers, err := demo(io.Discard, 40, 4096)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		httpcache.TierOrigin, httpcache.TierProxy, httpcache.TierOrigin, httpcache.TierOrigin,
		httpcache.TierClientCache, httpcache.TierRemoteProxy, httpcache.TierProxy,
	}
	if !slices.Equal(tiers, want) {
		t.Fatalf("demo served by %v, want %v", tiers, want)
	}
}

// bindBase must report the kernel-assigned port for ":0" listens, not
// the requested one.
func TestBindBasePortZero(t *testing.T) {
	ln, base, err := bindBase("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	want := "http://" + ln.Addr().String()
	if base != want {
		t.Fatalf("base %q, want %q", base, want)
	}
}

// A -peers entry a hop cannot dial stops the proxy before it serves,
// with an error that names the entry.
func TestProxyRefusesUndialablePeer(t *testing.T) {
	const bad = "https://127.0.0.1:9"
	err := runProxy([]string{"-listen", "127.0.0.1:0", "-peers", "127.0.0.1:8,http://127.0.0.1:7/," + bad})
	if err == nil || !strings.Contains(err.Error(), `"`+bad+`"`) {
		t.Fatalf("runProxy: %v, want an error naming %q", err, bad)
	}
}

// The bench role end to end: tiny generated workload, loopback
// topology, calibration within a loose tolerance, and a manifest that
// round-trips through the validating reader.
func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live bench in -short mode")
	}
	dir := t.TempDir()
	manifest := filepath.Join(dir, "BENCH_live.json")
	traceOut := filepath.Join(dir, "bench_trace.json")
	err := runBench([]string{
		"live", "-requests", "1500", "-objects", "150", "-clients", "20",
		"-proxies", "2", "-caches", "2",
		"-mode", "closed", "-workers", "8",
		"-object-bytes", "128", "-warmup", "150",
		"-tolerance", "0.25", "-manifest", manifest,
		"-trace-out", traceOut, "-trace-sample", "25",
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := obs.ReadManifestFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tool != "hiergdd-bench" {
		t.Fatalf("manifest tool %q", m.Tool)
	}
	if m.Metrics["loadgen.issued"] == 0 {
		t.Fatalf("manifest carries no loadgen counters: %v", m.Metrics)
	}
	if _, ok := m.Notes["calibration"]; !ok {
		t.Fatal("manifest missing calibration note")
	}
	// Live tracing acceptance: the tracer totals in the manifest show
	// the expected sampled-root population (1500 requests / sample 25 =
	// 60 roots) plus at least one joined daemon hop each, and the
	// bench's merged export is valid Chrome trace-event JSON holding
	// every one of those records and its spans.
	sampled, joined, spans := m.Metrics["trace.sampled"], m.Metrics["trace.joined"], m.Metrics["trace.spans"]
	if sampled != 60 {
		t.Fatalf("manifest trace.sampled = %v, want 60 (1500 / 25)", sampled)
	}
	if joined < sampled {
		t.Fatalf("manifest trace.joined = %v daemon hop records for %v roots", joined, sampled)
	}
	data, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(data); err != nil {
		t.Fatalf("bench chrome export invalid: %v", err)
	}
	if n := strings.Count(string(data), `"cat":"request"`); float64(n) != sampled+joined {
		t.Fatalf("export holds %d records, want %v roots + %v hops", n, sampled, joined)
	}
	if n := chromeEvents(t, data); float64(n) != sampled+joined+spans {
		t.Fatalf("export holds %d events, want %v records + %v spans", n, sampled+joined, spans)
	}
}

// chromeEvents counts the events of a Chrome trace-event export.
func chromeEvents(t *testing.T, data []byte) int {
	t.Helper()
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return len(doc.TraceEvents)
}
