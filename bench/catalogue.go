package main

import (
	"encoding/json"
	"io"
	"strings"
)

// metricDef is one catalogue entry; the catalogue is what
// BENCHMARK.json lists and what every run must emit (a test holds the
// two together).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median an end-to-end metric
	// may worsen by, and Issue the share ISSUE 12 asked for; per-layer
	// metrics have neither.
	Bound float64
	Issue float64
	Doc   string
}

// schemeNames are the simulator schemes in replay order, by metric-name
// part.
var schemeNames = []string{"nc", "sc", "fc", "nc-ec", "sc-ec", "fc-ec", "hier-gd", "squirrel"}

// Bound is what BENCHMARK.json carries, one per metric for all four
// workloads; Issue is what ISSUE 12 asked for.  A bound is the ISSUE's
// where every workload's quartile spread fits inside it, over ten runs
// of one seed and over ten seeds (README "Noise, and where the bounds
// come from"), and otherwise the smallest value that holds the widest
// spread seen, the manifest allowing 25 % at most:
//
//	metric          ISSUE   widest spread seen (workload)    bound
//	req_per_s       10 %    19 % (live_hit)                  25 %
//	p50_us          10 %    24 % (live_hit)                  25 %
//	p99_us          15 %    27 % (live_cascade)              25 %
//	cpu_us_per_req  10 %    24 % (live_hit)                  25 %
//	hit_ratio       1 %     0.76 % (live_cascade, 10 seeds)  2 %
//	peak_rss_mb     15 %    4.8 % (sim_churn)                15 %
//	allocs_per_req  10 %    5.8 % (sim_compare, 10 seeds)    10 %
//	setup_s         25 %    21 % (sim_compare, 10 seeds)     25 %
//
// The ISSUE's hit_ratio bound is 0.005 absolute, which is 1 % of
// live_cascade's 0.52; a share over 56 000 requests cannot be held to
// it across seeds.  The four timing metrics are set by the live
// workloads on a host whose speed shifts by a fifth for minutes at a
// time (whole runs move together, so no statistic over a run's blocks
// removes it); the sim workloads spread by 4 to 10 % and are held to the
// same number only because the manifest has one bound per metric.
// noise.json records, per workload, whether each metric is resolved at
// the ISSUE's bound; where it is not, a difference below the manifest's
// bound is to be reported as unresolved, not as unchanged, and a
// claimed gain is judged on alternating pairs, which cancel the drift.
var endToEnd = []metricDef{
	{"req_per_s", "1/s", "higher", 0.25, 0.10, "requests of a block / its wall time, at the median block (sim: one pass over every scheme, each at its median replay)"},
	{"p50_us", "us", "lower", 0.25, 0.10, "live: client-observed median latency, median block; sim (no client, not a latency): replay cost per request of the median scheme"},
	{"p99_us", "us", "lower", 0.25, 0.15, "live: client-observed 99th percentile, median block; sim (no client, not a latency): replay cost per request of the slowest scheme"},
	{"cpu_us_per_req", "us", "lower", 0.25, 0.10, "process user+system CPU of a block / its requests, median block (live: includes the in-process load generator and origin)"},
	{"hit_ratio", "fraction", "higher", 0.02, 0.01, "live: share of the measured requests not served by the origin; sim: Hier-GD's aggregate hit ratio (repeats exactly for a seed, held by the golden digests)"},
	{"peak_rss_mb", "MiB", "lower", 0.15, 0.15, "peak resident set of the process"},
	{"allocs_per_req", "count", "lower", 0.10, 0.10, "heap objects allocated during a block / its requests, median block"},
	{"setup_s", "s", "lower", 0.25, 0.25, "trace generation + topology bring-up + warm-up (sim: generation, codec round trip, fingerprint, one warm-up pass); median of three set-ups"},
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better, doc string) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better, Doc: doc})
	}
	// Outside-timed calls on the workload's trace.
	add("prowgen.generate_s", "s", "lower", "prowgen.Generate of the workload's trace")
	add("prowgen.req_per_s", "1/s", "higher", "requests generated per second")
	add("trace.encode_mb_per_s", "MB/s", "higher", "trace.WriteBinary throughput")
	add("trace.decode_rec_per_s", "1/s", "higher", "trace.ReadBinary records per second")
	add("trace.fingerprint_s", "s", "lower", "trace.Fingerprint of the workload's trace")
	for _, s := range schemeNames {
		add("sim."+s+".ns_per_req", "ns", "lower", "sim.Run wall time / requests for this scheme on the workload's trace")
	}
	for _, s := range schemeNames {
		add("sim."+s+".hit_ratio", "fraction", "higher", "share of requests this scheme did not send to the origin")
	}
	add("sim.hier-gd.dir_false_pos_ratio", "fraction", "lower", "directory false positives / P2P lookups")
	add("sim.hier-gd.p2p_lookup_hit_ratio", "fraction", "higher", "P2P lookup hits / lookups (useful / attempted)")
	add("sim.hier-gd.route_hops_per_lookup", "count", "lower", "Pastry hops / P2P lookups")
	add("sim.hier-gd.proxy_evictions", "count", "lower", "objects evicted from proxy caches")
	add("sim.hier-gd.p2p_stores", "count", "lower", "pass-down stores into client caches")
	add("sim.hier-gd.handoffs", "count", "lower", "objects re-homed when clients join")
	add("sim.hier-gd.lost_on_failure", "count", "lower", "objects lost to client failures")
	add("sim.hier-gd.failed_clients", "count", "lower", "injected client failures")
	add("sim.hier-gd.budget_explained", "fraction", "higher", "sum(probe ns x matching sim.Result count) / Hier-GD replay ns")
	add("core.runjobs_efficiency", "fraction", "higher", "serial pass / (core.RunJobs pass x workers)")
	// Layer probes: the workload's object stream fed into each package.
	add("cache.lru.op_ns", "ns", "lower", "LRU Access, and Add on a miss, per request")
	add("cache.lfu.op_ns", "ns", "lower", "perfect-LFU Access, and Add on a miss, per request")
	add("cache.gd.op_ns", "ns", "lower", "greedy-dual Access, and Add on a miss, per request")
	add("cache.gdsf.op_ns", "ns", "lower", "GDSF Access, and Add on a miss, per request")
	add("cache.gd.evictions", "count", "lower", "greedy-dual evictions over the probe stream")
	add("bloom.probe_ns", "ns", "lower", "counting-filter MayContain at the configured fill")
	add("bloom.add_ns", "ns", "lower", "counting-filter Add")
	add("bloom.remove_ns", "ns", "lower", "counting-filter Remove")
	add("bloom.fp_ratio", "fraction", "lower", "measured false positives / absent keys probed")
	add("directory.exact.lookup_ns", "ns", "lower", "directory.Exact MayContain")
	add("directory.bloom.lookup_ns", "ns", "lower", "directory.Bloom MayContain")
	add("directory.bloom.bytes", "B", "lower", "directory.Bloom memory at the probe fill")
	add("pastry.route_ns", "ns", "lower", "Overlay.RouteFrom per key")
	add("pastry.route_hops", "count", "lower", "mean hops per route")
	add("pastry.hash_ns", "ns", "lower", "pastry.HashUint64 per key")
	add("pastry.join_us", "us", "lower", "Overlay.Join per node")
	add("p2p.lookup_ns", "ns", "lower", "Cluster.Lookup per object")
	add("p2p.store_ns", "ns", "lower", "Cluster.StoreEvicted per object")
	add("store.get_ns", "ns", "lower", "store.Get hit")
	add("store.put_ns", "ns", "lower", "store.Put at capacity (evicting)")
	add("store.getorload_hit_ns", "ns", "lower", "store.GetOrLoad on a cached key")
	add("store.evictions_per_put", "count", "lower", "objects evicted / puts at capacity")
	add("disk.append_ns", "ns", "lower", "disk.Put + its share of the final Sync, per object")
	add("disk.read_ns", "ns", "lower", "disk.Get per object")
	add("disk.sync_ms", "ms", "lower", "disk.Sync after one object")
	add("disk.replay_obj_per_s", "1/s", "higher", "objects recovered per second by disk.Open")
	add("httpcache.handler_hit_ns", "ns", "lower", "Proxy.Handler() memory hit through httptest.NewRecorder, no sockets")
	add("httpcache.handler_hit_allocs", "count", "lower", "heap objects per such call")
	add("fleet.owner_ns", "ns", "lower", "fleet.Ring.OwnerOf per key")
	add("obs.counter_add_ns", "ns", "lower", "obs.Counter.Add")
	add("obs.span_ns", "ns", "lower", "one trace with one span on an enabled obs.Tracer")
	add("loadgen.driver_ns_per_req", "ns", "lower", "loadgen.Run per request against a no-op Target")
	add("loadgen.schedule_build_s", "s", "lower", "loadgen.BuildSchedule of the probe stream")
	// Live spans and counts.
	for _, s := range []string{"proxy.fetch", "proxy.peer_lookup", "cache.object"} {
		add("httpcache."+s+".calls", "count", "lower", "handler calls")
		add("httpcache."+s+".busy_s", "s", "lower", "sum of handler span durations")
		add("httpcache."+s+".self_us_mean", "us", "lower", "mean span duration minus the part child spans cover")
	}
	for _, s := range []string{"proxy.accept_push", "cache.store", "cache.push"} {
		add("httpcache."+s+".calls", "count", "lower", "handler calls")
		add("httpcache."+s+".busy_s", "s", "lower", "sum of handler span durations")
	}
	add("transport.us_mean", "us", "lower", "mean of client span minus proxy /fetch span: net/http client + loopback + net/http server")
	add("transport.share", "fraction", "lower", "sum of that difference / sum of client spans")
	add("loopback.rtt_us_p50", "us", "lower", "median direct GET to the origin by the same 2 closed-loop callers: the transport on its own, the floor")
	for _, t := range tierNames {
		add("tier."+t+".share", "fraction", "higher", "share of traced requests served by this tier")
		add("tier."+t+".p50_us", "us", "lower", "client-observed median for this tier (0 with no samples)")
	}
	add("loadgen.p999_us", "us", "lower", "client-observed 99.9th percentile over the traced requests")
	add("httpcache.proxy.pass_downs", "count", "lower", "evicted objects stored into client caches")
	add("httpcache.proxy.diversions", "count", "lower", "pass-downs diverted to a ring neighbour")
	add("httpcache.proxy.coalesced_fetches", "count", "higher", "requests served by another request's origin fetch")
	add("httpcache.proxy.origin_fetches", "count", "lower", "origin fetches")
	add("httpcache.proxy.dir_entries", "count", "higher", "directory entries at the end, all proxies")
	add("httpcache.proxy.p2p_hit_per_lookup", "fraction", "higher", "client-cache hits / /object calls (useful / attempted)")
	add("httpcache.proxy.peer_hit_per_lookup", "fraction", "higher", "remote-proxy hits / /peer-lookup calls")
	add("loadgen.calibration_delta_pp", "pp", "lower", "loadgen.Calibrate aggregate hit ratio, live minus sim, in percentage points")
	// Every workload.
	add("error_share", "fraction", "lower", "failed or wrong / attempted; 0 on a right run (the run's correct flag and exit code are the gate)")
	add("host.canary_ns", "ns", "lower", "fixed pure-Go loop of dependent loads scattered over 16 MiB, per load; moves with the host (CPU, cache, memory bandwidth), not the code")
	add("runtime.gc_pause_ms", "ms", "lower", "total GC pause of the process")
	add("runtime.heap_mb", "MiB", "lower", "live heap at the end")
	add("bench.trace_overhead", "fraction", "higher", "traced / untraced req_per_s within this run")
	add("bench.p50_explained", "fraction", "higher", "(loopback.rtt_us_p50 + median /fetch self time) / median p50_us of the run's untraced blocks")
	add("bench.p50_remainder_us", "us", "lower", "that p50_us minus those two parts: what the span table does not account for")
	return defs
}

// schemeMetricName maps sim.Scheme.String() ("Hier-GD") to the
// metric-name part ("hier-gd").
func schemeMetricName(s string) string { return strings.ToLower(s) }

// runSeconds is the time budget the acceptance driver passes as
// --seconds; every frozen size is tuned to it.
const runSeconds = 20

// printManifest writes BENCHMARK.json from the catalogue, so the file
// at the root is generated, never edited.
func printManifest(w io.Writer) error {
	type entry map[string]any
	man := map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": runSeconds,
	}
	var wls, e2e, layers []entry
	for _, wl := range workloads {
		wls = append(wls, entry{"name": wl.name, "why": wl.why})
	}
	for _, d := range endToEnd {
		e2e = append(e2e, entry{"name": d.Name, "unit": d.Unit, "better": d.Better, "bound": d.Bound})
	}
	for _, d := range perLayer {
		layers = append(layers, entry{"name": d.Name, "unit": d.Unit, "better": d.Better})
	}
	man["workloads"], man["end_to_end"], man["per_layer"] = wls, e2e, layers
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(man)
}
