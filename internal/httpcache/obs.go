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

// SetTracer attaches a span tracer (wall clock); nil disables tracing
// at zero cost.  Not safe to call after Serve starts.
func (p *Proxy) SetTracer(t *obs.Tracer) { p.tracer = t }

// SetMetrics attaches the registry backing the /metrics endpoint; nil
// leaves /metrics serving an empty (but valid) exposition.  The store
// layer's own instruments (store.*) attach to the same registry.
func (p *Proxy) SetMetrics(reg *obs.Registry) {
	p.metrics = reg
	p.store.SetMetrics(reg)
}

// SetTracer attaches a span tracer (wall clock); nil disables tracing.
func (c *ClientCache) SetTracer(t *obs.Tracer) { c.tracer = t }

// SetMetrics attaches the registry backing the daemon's /metrics.  The
// store layer's own instruments (store.*) attach to the same registry.
func (c *ClientCache) SetMetrics(reg *obs.Registry) {
	c.metrics = reg
	c.store.SetMetrics(reg)
}

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
// httpcache.proxy.* gauges (scrape-time snapshot, like /stats).
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
	g("origin_fetches", st.OriginFetch)
	g("coalesced_fetches", st.CoalescedFetches)
	g("pass_downs", st.PassDowns)
	g("diversions", st.Diversions)
	g("store_calls", st.StoreCalls)
	g("store_refusals", st.StoreRefusals)
	g("diverted_hits", st.DivertedHits)
	g("digest_pulls", st.DigestPulls)
	g("digest_pull_fails", st.DigestPullFails)
	g("digest_skips", st.DigestSkips)
	g("digest_false_pos", st.DigestFalsePos)
	g("swept_caches", st.SweptCaches)
	g("disk_hits", st.DiskHits)
	g("directory_entries", st.DirEntries)
	g("client_caches", p.ring.size())
	g("breaker_skipped", st.Defense.BreakerSkipped)
	g("breaker_opens", st.Defense.BreakerOpens)
	g("digest_checks", st.Defense.DigestChecks)
	g("digest_failures", st.Defense.DigestFailures)
	g("contrib_swept", st.Defense.ContribSwept)
	g("peer_timeouts", st.Defense.PeerTimeouts)
	if st.Fleet.Enabled {
		// Fleet membership gauges live in their own fleet.* namespace
		// (METRICS.md holds it both ways via obs.CheckMetricsDoc).
		fg := func(name string, v int) { reg.Gauge("fleet." + name).Set(float64(v)) }
		fg("members", st.Fleet.Members)
		fg("routed", st.Fleet.Routed)
		fg("routed_hits", st.Fleet.RoutedHits)
		fg("routed_origin", st.Fleet.RoutedOrigin)
		fg("route_failed", st.Fleet.RouteFailed)
		fg("route_skipped", st.Fleet.RouteSkipped)
		fg("hop_serves", st.Fleet.HopServes)
		fg("replicas_out", st.Fleet.ReplicasOut)
		fg("replicas_in", st.Fleet.ReplicasIn)
		fg("migrated_out", st.Fleet.MigratedOut)
		fg("migrated_in", st.Fleet.MigratedIn)
		fg("joins", st.Fleet.Joins)
		fg("leaves", st.Fleet.Leaves)
		fg("heartbeat_fails", st.Fleet.HeartbeatFails)
		fg("hot_keys", st.Fleet.HotKeys)
	}
	p.store.PublishMetrics()
	if p.disk != nil {
		p.disk.PublishMetrics()
	}
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
	g("hits", st.Hits)
	g("misses", st.Misses)
	g("stores", st.Stores)
	g("disk_hits", st.DiskHits)
	c.store.PublishMetrics()
	if c.disk != nil {
		c.disk.PublishMetrics()
	}
}

func (c *ClientCache) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c.publishStats()
	obs.PrometheusHandler(c.metrics).ServeHTTP(w, r)
}
