// Command hiergdd runs the HTTP deployment of the paper's system: a
// caching proxy that destages evictions into client-cache daemons,
// with lookup directories, diversion, and cooperating proxies that
// exchange digests (package internal/httpcache).
//
// Roles:
//
//	hiergdd proxy -listen :8080 -capacity 67108864 -peers http://other:8080
//	hiergdd cache -listen :9001 -capacity 16777216 -proxy http://localhost:8080
//	hiergdd demo                     # whole topology in-process on localhost
//	hiergdd bench live -trace t.bin -rate 500 -duration 10s   # live load + sim calibration
//	hiergdd bench chaos              # adversarial scenarios, defenses off vs on
//	hiergdd bench fleet              # fleet scale sweep: 1 -> 8 members, same budget
//	hiergdd bench slo                # SLO gate: burn-rate cut + aggregator agreement
//	hiergdd top -members a=http://h1:8080,b=http://h2:8080   # live cluster dashboard
//
// A proxy started with -fleet-members joins a consistent-hash fleet
// instead of the -peers mesh: each key has one owner member (plus
// -fleet-replication hot copies), a miss routes to the owner before
// origin, -fleet-join announces a newcomer (the keys whose ownership
// moved migrate to it), -fleet-heartbeat probes the roster and demotes
// dead members, and a graceful shutdown leaves the fleet first so the
// departing member's objects migrate to their new owners.
//
// Both daemons take -policy (any internal/cache registry name) and
// -shards (lock stripes of the internal/store data plane, 0 = auto);
// the proxy additionally takes -sweep to probe registered client
// caches periodically and deregister dead ones.
//
// Both daemons take -disk-dir to layer a persistent disk tier
// (internal/store/disk) under the memory cache: acknowledged stores
// ride a write-behind log, reads fall back to it on memory misses,
// and a restart recovers the journal and serves the survivors
// (-disk-cap bounds it; 0 = 16x -capacity).  A restarting cache
// daemon re-registers its recovered objects with the proxy, so the
// lookup directory re-learns what the cluster still holds.
//
// Both daemons accept -pprof addr to expose net/http/pprof on a side
// listener (e.g. -pprof localhost:6060, then `go tool pprof
// http://localhost:6060/debug/pprof/profile`), and shut down gracefully
// on SIGINT/SIGTERM: the listener closes, in-flight requests get -drain
// to finish, then the process exits.
//
// Observability: both daemons serve Prometheus text exposition on
// GET /metrics, and -trace FILE / -trace-jsonl FILE enable per-request
// span tracing (head-sampling 1 in -trace-sample untagged requests;
// requests carrying the X-Webcache-Trace header always join), with the
// exports flushed during graceful shutdown after the drain completes.
//
// The SLO plane: both daemons serve /healthz (liveness) and /readyz
// (readiness — 503 until recovery/registration/fleet wiring finish,
// and 503 again the moment a drain begins, before the listener
// closes), and -events FILE appends structured JSONL state-transition
// events (readiness, breakers, fleet membership, recovery, SLO burn
// crossings).  The proxy's -slo-classes declares per-class objectives
// ("interactive:100ms:0.99:1m,..."); requests tagged X-SLO-Class are
// accounted per class and slo.* burn-rate gauges appear on /metrics.
// -cluster-members "name=url,..." makes a proxy scrape and merge every
// member's /metrics into a cluster.* view on /cluster/metrics and
// /cluster/snapshot; `hiergdd top` renders the same aggregation as a
// live terminal dashboard.
//
// The demo starts an origin, two cooperating proxies with three client
// caches each, drives a request script through them, and prints which
// tier served every request — the paper's architecture observable
// with curl.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"webcache/internal/httpcache"
	"webcache/internal/obs"
	"webcache/internal/obs/cluster"
	"webcache/internal/obs/slo"
)

// startPprof exposes net/http/pprof on addr ("" disables).  Serve
// errors surface asynchronously so a taken port doesn't kill the
// daemon silently.
func startPprof(addr string) {
	if addr == "" {
		return
	}
	errc := obs.ServePprof(addr)
	go func() {
		if err := <-errc; err != nil {
			fmt.Fprintln(os.Stderr, "hiergdd: pprof listener:", err)
		}
	}()
	fmt.Printf("hiergdd: pprof on http://%s/debug/pprof/\n", addr)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "proxy":
		err = runProxy(os.Args[2:])
	case "cache":
		err = runCache(os.Args[2:])
	case "demo":
		err = runDemo(os.Args[2:])
	case "bench":
		err = runBench(os.Args[2:])
	case "top":
		err = runTop(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hiergdd:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: hiergdd proxy|cache|demo|bench|top [flags]")
	os.Exit(2)
}

// drainGrace is how long a draining daemon keeps its listener open
// after flipping /readyz to 503: http.Server.Shutdown closes the
// listener immediately, so the readiness flip must land first and
// load balancers need a beat to observe it and stop routing.  A
// variable so the shutdown tests can stretch the window.
var drainGrace = 200 * time.Millisecond

// serveDaemon serves h on ln until SIGINT/SIGTERM, then drains
// in-flight requests through http.Server.Shutdown for up to drain
// before closing hard.  markDraining (nil ok) runs when the signal
// lands, before the listener closes — the daemon's /readyz flips to
// 503 "draining" and stays reachable for drainGrace so routers stop
// sending work.  flush (nil ok) runs after the drain attempt —
// in-flight requests have finished recording by then — so trace and
// metrics exports capture every request the daemon served.  It
// returns nil on a clean signal-driven exit.
func serveDaemon(ln net.Listener, h http.Handler, drain time.Duration, markDraining, flush func()) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err // listener failed before any signal
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately
	fmt.Println("hiergdd: signal received, draining...")
	if markDraining != nil {
		markDraining()
		time.Sleep(drainGrace)
	}
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		srv.Close()
		if flush != nil {
			flush()
		}
		return fmt.Errorf("drain deadline exceeded: %w", err)
	}
	if flush != nil {
		flush()
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// daemonObs bundles the observability flags shared by the proxy and
// cache roles: a per-request span tracer (Chrome trace-event and/or
// JSONL export, written at shutdown) and the obs registry backing the
// daemon's /metrics Prometheus endpoint.
type daemonObs struct {
	traceOut   *string
	traceJSONL *string
	sample     *int
}

func addObsFlags(fs *flag.FlagSet) *daemonObs {
	return &daemonObs{
		traceOut:   fs.String("trace", "", "write sampled request traces as Chrome trace-event JSON to this file at shutdown"),
		traceJSONL: fs.String("trace-jsonl", "", "write sampled request traces as JSONL to this file at shutdown"),
		sample:     fs.Int("trace-sample", 100, "head-sample 1 in N untagged requests (tagged requests always join)"),
	}
}

// build returns the tracer (nil when no export was requested — the
// nil tracer is the zero-cost disabled path), the /metrics registry,
// and the shutdown flush that writes the exports and folds the
// tracer's totals into the registry exactly once.
func (d *daemonObs) build(role string) (*obs.Tracer, *obs.Registry, func()) {
	reg := obs.NewRegistry("hiergdd-" + role)
	var tracer *obs.Tracer
	if *d.traceOut != "" || *d.traceJSONL != "" {
		tracer = obs.NewTracer(obs.TracerOptions{
			Origin:      role,
			SampleEvery: *d.sample,
			Clock:       obs.ClockWall,
		})
	}
	flush := func() {
		if tracer == nil {
			return
		}
		tracer.PublishMetrics(reg)
		if *d.traceOut != "" {
			if err := tracer.WriteChromeFile(*d.traceOut); err != nil {
				fmt.Fprintln(os.Stderr, "hiergdd: trace export:", err)
			} else {
				fmt.Printf("hiergdd: wrote %d traces to %s\n", tracer.Len(), *d.traceOut)
			}
		}
		if *d.traceJSONL != "" {
			if err := tracer.WriteJSONLFile(*d.traceJSONL); err != nil {
				fmt.Fprintln(os.Stderr, "hiergdd: trace export:", err)
			} else {
				fmt.Printf("hiergdd: wrote %d traces to %s\n", tracer.Len(), *d.traceJSONL)
			}
		}
	}
	return tracer, reg, flush
}

// bindBase listens on addr and derives the externally reachable base
// URL from the bound address — with ":0" the kernel-assigned port, not
// the requested one, which is what scripts that parse the startup line
// need.
func bindBase(addr string) (net.Listener, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	bound := ln.Addr().(*net.TCPAddr)
	host := bound.IP.String()
	if bound.IP.IsUnspecified() {
		host = "localhost"
	}
	return ln, fmt.Sprintf("http://%s:%d", host, bound.Port), nil
}

// normalizeBaseURLs canonicalizes a comma-split roster so operator
// shorthand ("host:port", stray spaces, trailing slashes) produces the
// exact base-URL strings the ring keys members by — otherwise a
// scheme-less roster entry and the derived self URL would coexist as
// two distinct ring members.
func normalizeBaseURLs(in []string) []string {
	out := in[:0]
	for _, m := range in {
		m = strings.TrimSpace(m)
		if m == "" {
			continue
		}
		if !strings.Contains(m, "://") {
			m = "http://" + m
		}
		out = append(out, strings.TrimRight(m, "/"))
	}
	return out
}

func runProxy(args []string) error {
	fs := flag.NewFlagSet("proxy", flag.ExitOnError)
	listen := fs.String("listen", ":8080", "listen address")
	capacity := fs.Uint64("capacity", 64<<20, "proxy cache capacity in bytes")
	policy := fs.String("policy", "", "replacement policy (empty = greedy-dual; see internal/cache registry)")
	shards := fs.Int("shards", 0, "store shard count (0 = auto-size from GOMAXPROCS)")
	sweep := fs.Duration("sweep", 0, "probe registered client caches this often and deregister dead ones (0 = passive detection only)")
	self := fs.String("self", "", "externally reachable base URL (default derived from the bound address)")
	peers := fs.String("peers", "", "comma-separated cooperating proxy base URLs")
	fleetMembers := fs.String("fleet-members", "", "comma-separated fleet member base URLs: enables consistent-hash fleet routing instead of the -peers mesh (self is added automatically)")
	fleetReplication := fs.Int("fleet-replication", 1, "hot-object copy count k across the fleet")
	fleetHotAfter := fs.Int("fleet-hot-after", 0, "per-key access count that triggers replication (0 = default)")
	fleetJoin := fs.Bool("fleet-join", false, "announce this member to the roster on startup (POST /fleet/join), triggering rebalance toward it")
	fleetHeartbeat := fs.Duration("fleet-heartbeat", 0, "probe fleet members this often, demoting dead ones from the ring (0 = off)")
	diskDir := fs.String("disk-dir", "", "enable the persistent disk tier under this directory (recovered on boot)")
	diskCap := fs.Uint64("disk-cap", 0, "disk-tier capacity in bytes (0 = 16x -capacity)")
	sloClasses := fs.String("slo-classes", "", `SLO classes as "name:latency:availability[:window]", comma-separated (e.g. "interactive:50ms:0.99:1m,batch:500ms:0.9"): requests tagged X-SLO-Class are accounted per class and slo.* burn-rate gauges appear on /metrics`)
	eventsPath := fs.String("events", "", "append structured JSONL state-transition events (readiness, breaker, fleet membership, SLO burn crossings) to this file")
	clusterMembers := fs.String("cluster-members", "", `fleet members to aggregate as "name=url,..." — mounts /cluster/metrics and /cluster/snapshot on this daemon, scraping every member's /metrics + /fleet/heartbeat`)
	clusterScrape := fs.Duration("cluster-scrape", 2*time.Second, "cluster aggregator scrape interval")
	pprofAddr := fs.String("pprof", "", "expose net/http/pprof on this address")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown drain deadline")
	dobs := addObsFlags(fs)
	fs.Parse(args)
	startPprof(*pprofAddr)

	ln, base, err := bindBase(*listen)
	if err != nil {
		return err
	}
	if *self != "" {
		base = *self
	}
	// The registry is built before the proxy so the disk tier's
	// recovery instruments (store.disk.replay.*) record boot progress.
	tracer, reg, flush := dobs.build("proxy")
	events, closeEvents, err := openEventLog(*eventsPath, "proxy@"+base)
	if err != nil {
		ln.Close()
		return err
	}
	defer closeEvents()
	p, err := httpcache.NewProxyOpts(httpcache.Options{
		CapacityBytes:     *capacity,
		Policy:            *policy,
		Shards:            *shards,
		DiskDir:           *diskDir,
		DiskCapacityBytes: *diskCap,
		DiskMetrics:       reg,
	})
	if err != nil {
		ln.Close()
		return err
	}
	if *peers != "" {
		p.SetPeers(strings.Split(*peers, ","))
	}
	p.SetTracer(tracer)
	p.SetMetrics(reg)
	p.SetEvents(events)
	if *sloClasses != "" {
		classes, err := slo.ParseClasses(*sloClasses)
		if err != nil {
			ln.Close()
			return err
		}
		tr := slo.NewTracker(reg, classes, slo.DefaultThresholds)
		tr.SetEvents(events)
		p.SetSLO(tr)
		fmt.Printf("hiergdd proxy: tracking %d SLO classes\n", len(classes))
	}
	if *sweep > 0 {
		stop := p.StartSweeper(*sweep)
		defer stop()
	}
	fleetOn := *fleetMembers != ""
	if fleetOn {
		p.EnableFleet(httpcache.FleetOptions{
			Self:         base,
			Members:      normalizeBaseURLs(strings.Split(*fleetMembers, ",")),
			Replication:  *fleetReplication,
			HotThreshold: *fleetHotAfter,
		})
		if *fleetJoin {
			fmt.Printf("hiergdd proxy: fleet join announced to %d members\n", p.JoinFleet())
		}
		if *fleetHeartbeat > 0 {
			stop := p.StartFleetHeartbeat(*fleetHeartbeat)
			defer stop()
		}
		fmt.Printf("hiergdd proxy: fleet member among %d (replication k=%d)\n",
			p.FleetRing().Size(), *fleetReplication)
	}
	fmt.Printf("hiergdd proxy: listening on %s (self=%s, %d-byte cache, %s policy, %d shards)\n",
		ln.Addr(), base, *capacity, p.Store().PolicyName(), p.Store().NumShards())
	if *diskDir != "" {
		fmt.Printf("hiergdd proxy: disk tier %s (%d-byte budget) recovered %d objects\n",
			*diskDir, p.Disk().Capacity(), p.Disk().Recovered())
		events.Emit("recovery.done", map[string]string{
			"objects": fmt.Sprint(p.Disk().Recovered())})
	}

	// Handler stack: the aggregator's /cluster/* routes (when
	// configured) in front of the proxy's own surface.
	handler := http.Handler(p.Handler())
	if *clusterMembers != "" {
		members, err := cluster.ParseMembers(*clusterMembers)
		if err != nil {
			ln.Close()
			return err
		}
		agg := cluster.New(members, cluster.Options{Events: events})
		aggCtx, aggStop := context.WithCancel(context.Background())
		defer aggStop()
		go agg.Start(aggCtx, *clusterScrape)
		mux := http.NewServeMux()
		mux.Handle("/cluster/", agg.Handler())
		mux.Handle("/", handler)
		handler = mux
		fmt.Printf("hiergdd proxy: aggregating %d members on /cluster/metrics (every %s)\n",
			len(members), *clusterScrape)
	}

	// Construction, recovery, registration, and fleet wiring are done:
	// flip /readyz to 200 before the daemon takes traffic.
	p.MarkReady()

	// The disk drain runs after the HTTP drain, so every insert an
	// in-flight request acknowledged is journaled before exit.  A fleet
	// member leaves first: the departure is announced and the keys it
	// owned migrate to their new owners while the peers still accept.
	return serveDaemon(ln, handler, *drain, p.MarkDraining, func() {
		if fleetOn {
			fmt.Printf("hiergdd proxy: fleet leave migrated %d objects\n", p.LeaveFleet())
		}
		flush()
		if err := p.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "hiergdd: disk close:", err)
		}
	})
}

// openEventLog opens path for appending and returns the daemon's
// structured event log; an empty path returns a nil (disabled) log.
func openEventLog(path, source string) (*obs.EventLog, func(), error) {
	if path == "" {
		return nil, func() {}, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return obs.NewEventLog(source, f), func() { f.Close() }, nil
}

func runCache(args []string) error {
	fs := flag.NewFlagSet("cache", flag.ExitOnError)
	listen := fs.String("listen", ":9001", "listen address")
	capacity := fs.Uint64("capacity", 16<<20, "cooperative cache capacity in bytes")
	policy := fs.String("policy", "", "replacement policy (empty = greedy-dual; see internal/cache registry)")
	shards := fs.Int("shards", 0, "store shard count (0 = auto-size from GOMAXPROCS)")
	proxy := fs.String("proxy", "http://localhost:8080", "local proxy base URL")
	diskDir := fs.String("disk-dir", "", "enable the persistent disk tier under this directory (recovered on boot)")
	diskCap := fs.Uint64("disk-cap", 0, "disk-tier capacity in bytes (0 = 16x -capacity)")
	eventsPath := fs.String("events", "", "append structured JSONL state-transition events (readiness, recovery) to this file")
	pprofAddr := fs.String("pprof", "", "expose net/http/pprof on this address")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown drain deadline")
	dobs := addObsFlags(fs)
	fs.Parse(args)
	startPprof(*pprofAddr)

	tracer, reg, flush := dobs.build("cache")
	cc, err := httpcache.NewClientCacheOpts(httpcache.Options{
		CapacityBytes:     *capacity,
		Policy:            *policy,
		Shards:            *shards,
		DiskDir:           *diskDir,
		DiskCapacityBytes: *diskCap,
		DiskMetrics:       reg,
	})
	if err != nil {
		return err
	}
	cc.SetTracer(tracer)
	cc.SetMetrics(reg)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	events, closeEvents, err := openEventLog(*eventsPath, "cache@"+addr)
	if err != nil {
		ln.Close()
		return err
	}
	defer closeEvents()
	cc.SetEvents(events)
	// A daemon restarting over its disk directory re-registers the
	// recovered objects in the /register body, so the proxy's lookup
	// directory re-learns what this partition still holds.
	regBody, contentType := io.Reader(nil), "text/plain"
	if rec := cc.RecoveredHexKeys(); len(rec) > 0 {
		b, merr := json.Marshal(map[string][]string{"recovered": rec})
		if merr == nil {
			regBody, contentType = strings.NewReader(string(b)), "application/json"
			fmt.Printf("hiergdd cache: disk tier %s recovered %d objects\n", *diskDir, len(rec))
		}
	}
	if resp, err := http.Post(fmt.Sprintf("%s/register?addr=%s", *proxy, addr), contentType, regBody); err != nil {
		ln.Close()
		return fmt.Errorf("registering with proxy: %w", err)
	} else {
		resp.Body.Close()
	}
	fmt.Printf("hiergdd cache: %s registered with %s (%d-byte partition)\n", addr, *proxy, *capacity)
	// Recovery and proxy registration are done: flip /readyz to 200.
	cc.MarkReady()
	return serveDaemon(ln, cc.Handler(), *drain, cc.MarkDraining, func() {
		flush()
		if err := cc.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "hiergdd: disk close:", err)
		}
	})
}

func runDemo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	proxyCap := fs.Uint64("proxy-capacity", 40, "tiny proxy cache (bytes) so destaging is visible")
	cacheCap := fs.Uint64("cache-capacity", 4096, "client cache capacity (bytes)")
	fs.Parse(args)

	// Origin.
	originLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go http.Serve(originLn, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "origin-content:%s", r.URL.Path)
	}))
	origin := "http://" + originLn.Addr().String()

	// Two proxies.
	var proxyURLs []string
	var proxies []*httpcache.Proxy
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		p := httpcache.NewProxy(*proxyCap)
		u := "http://" + ln.Addr().String()
		go http.Serve(ln, p.Handler())
		proxies = append(proxies, p)
		proxyURLs = append(proxyURLs, u)
	}
	proxies[0].SetPeers([]string{proxyURLs[1]})
	proxies[1].SetPeers([]string{proxyURLs[0]})

	// Three client caches per proxy.
	for i := range proxies {
		for c := 0; c < 3; c++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			cc := httpcache.NewClientCache(*cacheCap)
			go http.Serve(ln, cc.Handler())
			resp, err := http.Post(fmt.Sprintf("%s/register?addr=%s", proxyURLs[i], ln.Addr().String()), "text/plain", nil)
			if err != nil {
				return err
			}
			resp.Body.Close()
		}
	}
	fmt.Printf("topology: origin %s, proxies %v, 3 client caches each\n\n", origin, proxyURLs)

	fetch := func(proxy int, path string) (string, error) {
		u := fmt.Sprintf("%s/fetch?url=%s", proxyURLs[proxy], url.QueryEscape(origin+path))
		resp, err := http.Get(u)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.Header.Get(httpcache.ServedByHeader), nil
	}

	script := []struct {
		proxy int
		path  string
		note  string
	}{
		{0, "/a", "cold miss"},
		{0, "/a", "proxy cache hit"},
		{0, "/b", "cold miss (evicts /a into the client caches)"},
		{0, "/c", "cold miss (more destaging)"},
		{0, "/a", "client-cache hit via the lookup directory"},
		{1, "/c", "cooperating proxy serves it (relayed if destaged)"},
		{1, "/c", "now cached at proxy B"},
	}
	for _, stp := range script {
		tier, err := fetch(stp.proxy, stp.path)
		if err != nil {
			return err
		}
		fmt.Printf("  proxy%d GET %-3s -> %-13s (%s)\n", stp.proxy, stp.path, tier, stp.note)
	}

	for i, u := range proxyURLs {
		resp, err := http.Get(u + "/stats")
		if err != nil {
			return err
		}
		var st httpcache.ProxyStats
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		fmt.Printf("\nproxy%d stats: %+v\n", i, st)
	}
	fmt.Println("\nEverything above travelled over real localhost TCP connections.")
	return nil
}
