package sim

import (
	"fmt"
	"strings"

	"webcache/internal/netmodel"
	"webcache/internal/obs"
	"webcache/internal/p2p"
)

// Result is the outcome of replaying one trace under one scheme.
type Result struct {
	Scheme Scheme
	// Requests replayed and the latency totals.
	Requests     int
	TotalLatency float64
	AvgLatency   float64
	// Sources counts requests by serving tier.
	Sources [netmodel.NumSources]int
	// Bytes sums object sizes by serving tier (cache units): the
	// traffic each tier carried.  Bytes[SrcServer] is the origin-
	// server load that caching did not absorb; Bytes[SrcRemoteProxy]
	// is inter-proxy WAN traffic.
	Bytes [netmodel.NumSources]uint64
	// Hier-GD directory telemetry.
	DirectoryFalsePositives int
	DirectoryMemoryBytes    uint64
	// P2P aggregates the client-cluster mechanism stats over all
	// proxies (EC upper-bound schemes leave it zero).
	P2P p2p.Stats
	// Sizing echo for reporting.
	InfiniteCacheSizes []int
	ProxyCapacities    []uint64
	ClientCapacity     uint64
	// FailedClients counts injected client-cache crashes.
	FailedClients int
	// Chaos-scenario telemetry (all zero outside chaos runs).
	// FlashChurned counts clients killed by the flash-churn storm;
	// PoisonInjected / PoisonSwept count bogus directory entries
	// planted and removed; ByzantineServes counts corrupted P2P serves
	// and ByzantineDetected the ones the digest-sampling defense
	// caught.
	FlashChurned      int
	PoisonInjected    int
	PoisonSwept       int
	ByzantineServes   int
	ByzantineDetected int
	// Inter-proxy digest telemetry (Config.DigestInterval > 0).
	DigestStaleProbes int    // wasted Tc probes on stale digest entries
	DigestMemoryBytes uint64 // advertised digest footprint per rebuild
	DigestRebuilds    int
	// P2PMaxNodeServes is the hottest client cache's lookup-serve
	// count across all clusters: with one copy of each object, the
	// owner of a popular object serves every lookup for it.
	P2PMaxNodeServes int
	// ProxyEvictions counts objects evicted from proxy-tier caches:
	// destaged into the client tier (Hier-GD, EC schemes) or
	// discarded outright (NC, SC).
	ProxyEvictions int
	// MaintenanceTicks counts background-maintenance activations that
	// did work: digest rebuild rounds, FC window re-placements, and
	// failure-injection rounds.
	MaintenanceTicks int
	// InvariantChecks / InvariantViolations snapshot the Config.Check
	// checker after the run (cumulative when runs share a Checker;
	// zero when checking is disabled).
	InvariantChecks     int64
	InvariantViolations int64
}

// HitRatio returns the fraction of requests served by src.
func (r *Result) HitRatio(src netmodel.Source) float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Sources[src]) / float64(r.Requests)
}

// ServerByteRatio is the fraction of requested bytes that still had to
// come from origin servers — the load-reduction metric of the paper's
// introduction ("reduce network traffic and the load on Web servers").
func (r *Result) ServerByteRatio() float64 {
	var total uint64
	for _, b := range r.Bytes {
		total += b
	}
	if total == 0 {
		return 0
	}
	return float64(r.Bytes[netmodel.SrcServer]) / float64(total)
}

// String renders a one-line summary.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-7s avg=%.4f", r.Scheme, r.AvgLatency)
	for src := 0; src < netmodel.NumSources; src++ {
		fmt.Fprintf(&b, " %s=%.1f%%", netmodel.Source(src), 100*r.HitRatio(netmodel.Source(src)))
	}
	if r.DirectoryFalsePositives > 0 {
		fmt.Fprintf(&b, " dirFP=%d", r.DirectoryFalsePositives)
	}
	return b.String()
}

// sourceMetric maps a serving tier to its metric-name suffix.
func sourceMetric(src netmodel.Source) string {
	switch src {
	case netmodel.SrcLocalProxy:
		return "local_proxy"
	case netmodel.SrcP2P:
		return "p2p"
	case netmodel.SrcRemoteProxy:
		return "remote_proxy"
	default:
		return "server"
	}
}

// PublishMetrics folds the result into a metric registry under the
// sim.* namespace (see METRICS.md for the full glossary).  Every
// metric is a counter so concurrent sweep runs sharing one registry
// aggregate correctly.  A nil registry makes this a no-op.
func (r *Result) PublishMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("sim.runs").Inc()
	reg.Counter("sim.requests").Add(int64(r.Requests))
	for src := 0; src < netmodel.NumSources; src++ {
		reg.Counter("sim.serves." + sourceMetric(netmodel.Source(src))).Add(int64(r.Sources[src]))
	}
	reg.Counter("sim.proxy.evictions").Add(int64(r.ProxyEvictions))

	p := r.P2P
	for _, m := range []struct {
		name string
		v    int
	}{
		{"stores", p.Stores}, {"diversions", p.Diversions},
		{"replacements", p.Replacements}, {"evictions", p.Evictions},
		{"lookups", p.Lookups}, {"lookup_hits", p.LookupHits},
		{"pointer_hits", p.PointerHits}, {"pushes", p.Pushes},
		{"messages", p.Messages}, {"piggyback_saves", p.PiggybackSave},
		{"route_hops", p.RouteHops}, {"handoffs", p.Handoffs},
		{"lost_on_failure", p.LostOnFailure},
	} {
		reg.Counter("sim.p2p." + m.name).Add(int64(m.v))
	}
}

// addP2P folds one cluster's stats into the result.
func (r *Result) addP2P(s p2p.Stats) {
	r.P2P.Stores += s.Stores
	r.P2P.Diversions += s.Diversions
	r.P2P.Replacements += s.Replacements
	r.P2P.Evictions += s.Evictions
	r.P2P.Lookups += s.Lookups
	r.P2P.LookupHits += s.LookupHits
	r.P2P.PointerHits += s.PointerHits
	r.P2P.Pushes += s.Pushes
	r.P2P.Messages += s.Messages
	r.P2P.PiggybackSave += s.PiggybackSave
	r.P2P.RouteHops += s.RouteHops
	r.P2P.Handoffs += s.Handoffs
	r.P2P.LostOnFailure += s.LostOnFailure
}
