package httpcache

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"webcache/internal/obs"
	"webcache/internal/wiretest"
)

// attachObs wires a tracer and registry into every daemon of a
// deployment, returning the proxy tracers and cache tracers.
func attachObs(d *deployment) (proxyT []*obs.Tracer, cacheT [][]*obs.Tracer) {
	for p, px := range d.proxies {
		t := obs.NewTracer(obs.TracerOptions{Origin: fmt.Sprintf("proxy%d", p), Clock: obs.ClockWall})
		px.SetTracer(t)
		px.SetMetrics(obs.NewRegistry(fmt.Sprintf("proxy%d", p)))
		proxyT = append(proxyT, t)
		var row []*obs.Tracer
		for c, cc := range d.caches[p] {
			ct := obs.NewTracer(obs.TracerOptions{Origin: fmt.Sprintf("cache%d-%d", p, c), Clock: obs.ClockWall})
			cc.SetTracer(ct)
			cc.SetMetrics(obs.NewRegistry(fmt.Sprintf("cache%d-%d", p, c)))
			row = append(row, ct)
		}
		cacheT = append(cacheT, row)
	}
	return proxyT, cacheT
}

// tracedFetch issues /fetch with an explicit trace id, as the load
// generator does, and returns the serving tier.
func tracedFetch(t *testing.T, d *deployment, p int, path, traceID string) string {
	t.Helper()
	u := fmt.Sprintf("%s/fetch?url=%s", d.proxyS[p].URL, url.QueryEscape(d.origin.srv.URL+path))
	req, err := http.NewRequest("GET", u, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TraceHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch %s: status %d", path, resp.StatusCode)
	}
	return resp.Header.Get(ServedByHeader)
}

// A propagated trace id must join the traces recorded at every hop of
// a cross-proxy fetch: the requesting proxy, the peer proxy, and the
// peer's client cache on the relay.
func TestTraceIDPropagatesAcrossHops(t *testing.T) {
	d := deploy(t, 2, 2, 1<<20, 1<<20)
	proxyT, cacheT := attachObs(d)

	// Warm proxy 1, then evict nothing: fetch via proxy 0 must go
	// remote (peer-lookup into proxy 1's cache).
	if tier := tracedFetch(t, d, 1, "/x", "t-warm"); tier != TierOrigin {
		t.Fatalf("warm fetch tier %q, want origin", tier)
	}
	if tier := tracedFetch(t, d, 0, "/x", "t-remote"); tier != TierRemoteProxy {
		t.Fatalf("cross fetch tier %q, want remote-proxy", tier)
	}

	find := func(tr *obs.Tracer, id string) bool {
		for _, st := range tr.Snapshots() {
			if st.ID == id {
				return true
			}
		}
		return false
	}
	if !find(proxyT[0], "t-remote") {
		t.Fatal("requesting proxy did not record the propagated trace")
	}
	if !find(proxyT[1], "t-remote") {
		t.Fatal("peer proxy did not join the propagated trace")
	}
	// The warm fetch missed everywhere, so proxy 1 peer-looked-up
	// proxy 0 with the id propagated: proxy 0 holds "t-warm" as a
	// *joined* (non-root) peer-lookup trace, never as a root.
	for _, st := range proxyT[0].Snapshots() {
		if st.ID == "t-warm" {
			if st.Root || st.Name != "peer-lookup" {
				t.Fatalf("proxy 0's t-warm trace: root=%v name=%q, want joined peer-lookup", st.Root, st.Name)
			}
		}
	}
	if !find(proxyT[0], "t-warm") {
		t.Fatal("peer-lookup did not propagate the warm trace id")
	}
	_ = cacheT
}

// The relay must carry the trace id down into the client cache:
// requester proxy → peer proxy → peer's client cache.
func TestTraceIDReachesClientCacheOnRelay(t *testing.T) {
	d := deploy(t, 2, 3, 52, 1<<20)
	proxyT, cacheT := attachObs(d)

	// Overflow proxy 0's tiny cache so objects destage into its client
	// caches (the TestRelayAcrossProxies layout); then fetch them via
	// proxy 1 → peer-lookup → relay from proxy 0's clients.  The
	// requester observes remote-proxy either way; the label proxy 0
	// closed the lookup's trace under tells which went by relay.
	for i := 0; i < 12; i++ {
		tracedFetch(t, d, 0, fmt.Sprintf("/p%02d", i), fmt.Sprintf("t-fill%d", i))
	}
	id := ""
	for i := 0; i < 12 && id == ""; i++ {
		tracedFetch(t, d, 1, fmt.Sprintf("/p%02d", i), fmt.Sprintf("t-relay%d", i))
		if label, _ := finishedTrace(t, proxyT[0], fmt.Sprintf("t-relay%d", i)); label == TierPeerP2P {
			id = fmt.Sprintf("t-relay%d", i)
		}
	}
	if id == "" {
		t.Fatal("proxy 0 relayed nothing from its client caches")
	}
	joined := false
	for _, row := range cacheT {
		for _, ct := range row {
			for _, st := range ct.Snapshots() {
				if st.ID == id {
					joined = true
				}
			}
		}
	}
	if !joined {
		t.Fatalf("no client cache joined trace %s", id)
	}
	if len(proxyT[1].Snapshots()) == 0 {
		t.Fatal("peer proxy recorded no traces")
	}
}

// /metrics on both daemons must serve parseable Prometheus text with
// the httpcache namespaces populated.
func TestMetricsEndpointsParse(t *testing.T) {
	d := deploy(t, 1, 1, 1<<20, 1<<20)
	attachObs(d)
	d.fetch(0, "/m1")
	d.fetch(0, "/m1")

	get := func(u string) string {
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
			t.Fatalf("content type %q", ct)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	ptext := get(d.proxyS[0].URL + "/metrics")
	if n, err := obs.ParsePrometheusText(strings.NewReader(ptext)); err != nil || n == 0 {
		t.Fatalf("proxy /metrics: %d samples, err %v:\n%s", n, err, ptext)
	}
	for _, want := range []string{"webcache_httpcache_proxy_requests", "webcache_httpcache_proxy_proxy_hits"} {
		if !strings.Contains(ptext, want) {
			t.Fatalf("proxy /metrics missing %s:\n%s", want, ptext)
		}
	}

	ctext := get(d.cacheS[0][0].URL + "/metrics")
	if n, err := obs.ParsePrometheusText(strings.NewReader(ctext)); err != nil || n == 0 {
		t.Fatalf("cache /metrics: %d samples, err %v:\n%s", n, err, ctext)
	}
	if !strings.Contains(ctext, "webcache_httpcache_cache_objects") {
		t.Fatalf("cache /metrics missing objects gauge:\n%s", ctext)
	}

	// Without a registry the endpoint still serves a valid (empty)
	// exposition.
	bare := httptest.NewServer(wiretest.StrictFraming(t, NewProxy(1<<20).Handler()))
	defer bare.Close()
	if n, err := obs.ParsePrometheusText(strings.NewReader(get(bare.URL + "/metrics"))); err != nil || n != 0 {
		t.Fatalf("bare /metrics: %d samples, err %v", n, err)
	}
}
