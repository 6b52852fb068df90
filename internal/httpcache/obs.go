package httpcache

import (
	"net/http"

	"webcache/internal/obs"
)

// TraceHeader carries a span-trace id across hops: the load generator
// stamps it on /fetch, and the proxy forwards it on LAN fetches and
// peer-lookups, whose relays forward it on to the client caches — so
// one request's spans join up across every daemon it touched (each
// daemon records its own trace under the shared id; the exports are
// merged offline by id).
const TraceHeader = "X-Webcache-Trace"

// traceStart opens a request's span trace: joining the caller's trace
// when it propagated TraceHeader, else head-sampling a fresh one.
func traceStart(t *obs.Tracer, r *http.Request, name string) *obs.SpanTrace {
	if t == nil {
		return nil
	}
	if id := r.Header.Get(TraceHeader); id != "" {
		return t.StartTraceID(id, name)
	}
	return t.StartTrace(name, 0)
}

// publishStats folds the proxy's counters into its registry as
// httpcache.proxy.* gauges (a scrape-time snapshot).
func (p *Proxy) publishStats() {
	reg := p.metrics
	if reg == nil {
		return
	}
	st := p.snapshotStats()
	g := func(name string, v int) { reg.Gauge("httpcache.proxy." + name).Set(float64(v)) }
	g("requests", st.Requests)
	g("proxy_hits", st.ProxyHits)
	g("client_hits", st.ClientHits)
	g("remote_hits", st.RemoteHits)
	g("origin_replies", int(p.stats.originReplies.Load()))
	g("breaker_opens", st.Defense.BreakerOpens)
	p.store.PublishMetrics()
	// Refresh the slo.* gauges (and fire burn-rate threshold events) at
	// every scrape, so the cluster aggregator reads current burn rates.
	p.slo.Report()
}

func (p *Proxy) handleMetrics(w http.ResponseWriter, r *http.Request) {
	p.publishStats()
	obs.PrometheusHandler(p.metrics).ServeHTTP(w, r)
}

// publishStats folds the daemon's counters into its registry as
// httpcache.cache.* gauges.
func (c *ClientCache) publishStats() {
	reg := c.metrics
	if reg == nil {
		return
	}
	st := c.snapshotStats()
	g := func(name string, v int) { reg.Gauge("httpcache.cache." + name).Set(float64(v)) }
	g("objects", st.Objects)
	c.store.PublishMetrics()
}

func (c *ClientCache) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c.publishStats()
	obs.PrometheusHandler(c.metrics).ServeHTTP(w, r)
}
