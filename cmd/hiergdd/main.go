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
//	hiergdd bench chaos              # adversarial scenarios, defenses off vs on: tail and SLO burn cuts, aggregator agreement
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
// Both daemons run greedy-dual, the paper's policy, in a store
// (internal/store) striped by core count; the proxy takes -sweep to
// probe registered client caches periodically and deregister dead
// ones.
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
// GET /metrics, and -trace-out FILE / -trace-jsonl FILE enable
// per-request span tracing (head-sampling 1 in -trace-sample untagged
// requests; requests carrying the X-Webcache-Trace header always
// join), with the exports flushed during graceful shutdown after the
// drain completes.  Every role wires these flags through obs.Session.
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
// caches each (loadgen.StartLoopback), drives a request script through
// them, and prints which tier served every request — the paper's
// architecture observable with curl.
package main

import (
	"context"
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
	"webcache/internal/loadgen"
	"webcache/internal/obs"
	"webcache/internal/obs/cluster"
	"webcache/internal/obs/slo"
)

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

// closeSession writes a daemon's trace exports at shutdown; a failed
// export is reported, not fatal, so the disk drain still runs.
func closeSession(sess *obs.Session) {
	if err := sess.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "hiergdd:", err)
	}
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
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown drain deadline")
	sess := obs.NewSession(fs, "hiergdd-proxy")
	fs.Parse(args)
	// The registry opens before the proxy so the disk tier's recovery
	// instruments (store.disk.replay.*) record boot progress.
	if err := sess.Start(); err != nil {
		return err
	}
	reg := sess.Reg

	ln, base, err := bindBase(*listen)
	if err != nil {
		return err
	}
	if *self != "" {
		base = *self
	}
	events, closeEvents, err := openEventLog(*eventsPath, "proxy@"+base)
	if err != nil {
		ln.Close()
		return err
	}
	defer closeEvents()
	p, err := httpcache.NewProxyOpts(httpcache.Options{
		CapacityBytes:     *capacity,
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
	p.SetTracer(sess.Tracer)
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
	fmt.Printf("hiergdd proxy: listening on %s (self=%s, %d-byte cache, %d shards)\n",
		ln.Addr(), base, *capacity, p.Store().NumShards())
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
		closeSession(sess)
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
	proxy := fs.String("proxy", "http://localhost:8080", "local proxy base URL")
	diskDir := fs.String("disk-dir", "", "enable the persistent disk tier under this directory (recovered on boot)")
	diskCap := fs.Uint64("disk-cap", 0, "disk-tier capacity in bytes (0 = 16x -capacity)")
	eventsPath := fs.String("events", "", "append structured JSONL state-transition events (readiness, recovery) to this file")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown drain deadline")
	sess := obs.NewSession(fs, "hiergdd-cache")
	fs.Parse(args)
	if err := sess.Start(); err != nil {
		return err
	}

	cc, err := httpcache.NewClientCacheOpts(httpcache.Options{
		CapacityBytes:     *capacity,
		DiskDir:           *diskDir,
		DiskCapacityBytes: *diskCap,
		DiskMetrics:       sess.Reg,
	})
	if err != nil {
		return err
	}
	cc.SetTracer(sess.Tracer)
	cc.SetMetrics(sess.Reg)
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
	rec := cc.RecoveredHexKeys()
	if len(rec) > 0 {
		fmt.Printf("hiergdd cache: disk tier %s recovered %d objects\n", *diskDir, len(rec))
	}
	if err := httpcache.Register(*proxy, addr, rec); err != nil {
		ln.Close()
		return err
	}
	fmt.Printf("hiergdd cache: %s registered with %s (%d-byte partition)\n", addr, *proxy, *capacity)
	// Recovery and proxy registration are done: flip /readyz to 200.
	cc.MarkReady()
	return serveDaemon(ln, cc.Handler(), *drain, cc.MarkDraining, func() {
		closeSession(sess)
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
	_, err := demo(os.Stdout, *proxyCap, *cacheCap)
	return err
}

// demoObjectBytes is the origin's body size: the default 40-byte proxy
// cache holds two objects, so the third evicts.
const demoObjectBytes = 17

// demo stands up the topology on loopback, drives the request script
// through it, and prints and returns the tier that served each request.
func demo(out io.Writer, proxyCap, cacheCap uint64) ([]string, error) {
	topo, err := loadgen.StartLoopback(loadgen.TopologyConfig{
		Proxies:            2,
		CachesPerProxy:     3,
		ProxyCapacityBytes: []uint64{proxyCap},
		CacheCapacityBytes: []uint64{cacheCap},
		ObjectBytes:        demoObjectBytes,
	})
	if err != nil {
		return nil, err
	}
	defer closeTopology(topo, 5*time.Second)
	fmt.Fprintf(out, "topology: origin %s, proxies %v, 3 client caches each\n\n", topo.OriginURL, topo.ProxyURLs)

	fetch := func(proxy int, path string) (string, error) {
		u := fmt.Sprintf("%s/fetch?url=%s", topo.ProxyURLs[proxy], url.QueryEscape(topo.OriginURL+path))
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
		{0, "/b", "cold miss (the proxy cache is now full)"},
		{0, "/c", "cold miss (evicts /a into the client caches)"},
		{0, "/a", "client-cache hit via the lookup directory"},
		{1, "/c", "cooperating proxy serves it (relayed if destaged)"},
		{1, "/c", "now cached at proxy B"},
	}
	var tiers []string
	for _, stp := range script {
		tier, err := fetch(stp.proxy, stp.path)
		if err != nil {
			return tiers, err
		}
		tiers = append(tiers, tier)
		fmt.Fprintf(out, "  proxy%d GET %-3s -> %-13s (%s)\n", stp.proxy, stp.path, tier, stp.note)
	}

	for i := range topo.ProxyURLs {
		st, err := topo.ProxyStats(i)
		if err != nil {
			return tiers, err
		}
		fmt.Fprintf(out, "\nproxy%d stats: %+v\n", i, st)
	}
	fmt.Fprintln(out, "\nEverything above travelled over real localhost TCP connections.")
	return tiers, nil
}
