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
// Each daemon role binds its listener, builds its daemon from one
// httpcache.Options value (registry, tracer, event log and, for a
// proxy, its peers and SLO classes), and only then serves.  -peers and
// -self take base URLs or host:port shorthand; the proxy normalizes
// them.
//
// Both daemons hold their objects in memory, in one greedy-dual store
// (internal/store), the paper's policy, sized by -capacity; a cache
// daemon registers with its proxy on start-up and holds nothing across
// a restart.  The proxy takes -sweep to probe registered client caches
// periodically and deregister dead ones.
//
// Both daemons accept -pprof addr to expose net/http/pprof on a side
// listener (e.g. -pprof localhost:6060, then `go tool pprof
// http://localhost:6060/debug/pprof/profile`), and shut down gracefully
// on SIGINT/SIGTERM: the listener closes, in-flight requests get -drain
// to finish, then the process exits.
//
// Observability: both daemons serve Prometheus text exposition on
// GET /metrics, and -trace-out FILE enables per-request span tracing
// (head-sampling 1 in -trace-sample untagged requests; requests
// carrying the X-Webcache-Trace header always join), with the Chrome
// trace-event export flushed during graceful shutdown after the drain
// completes.  Every role wires these flags through obs.Session.
//
// The SLO plane: both daemons serve /healthz (liveness) and /readyz
// (readiness — 503 until construction and registration finish,
// and 503 again the moment a drain begins, before the listener
// closes), and -events FILE appends structured JSONL state-transition
// events (readiness, breakers, SLO burn crossings).  The proxy's -slo-classes declares per-class objectives
// ("interactive:100ms:0.99:1m,..."); requests tagged X-SLO-Class are
// accounted per class and slo.* burn-rate gauges appear on /metrics.
// `hiergdd top` scrapes every member's /metrics itself and renders the
// cluster view as a live terminal dashboard (-once for scripts).
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

// headerTimeout bounds how long a daemon waits for a request's header
// once it starts reading one, so a client that sends a partial request
// line and stops cannot hold a goroutine and a descriptor forever.
// An idle keep-alive connection is not bounded by it (net/http arms it
// only when the next request's first bytes arrive), and neither is a
// frame connection: net/http clears a connection's deadlines when it
// hands it over (Hijack).
const headerTimeout = 10 * time.Second

// newDaemonServer is the http.Server every daemon serves h with.
func newDaemonServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: headerTimeout}
}

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

	srv := newDaemonServer(h)
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
// export is reported, not fatal, so the daemon's Close still runs.
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

func runProxy(args []string) error {
	fs := flag.NewFlagSet("proxy", flag.ExitOnError)
	listen := fs.String("listen", ":8080", "listen address")
	capacity := fs.Uint64("capacity", 64<<20, "proxy cache capacity in bytes")
	sweep := fs.Duration("sweep", 0, "probe registered client caches this often and deregister dead ones (0 = passive detection only)")
	self := fs.String("self", "", "externally reachable base URL (default derived from the bound address)")
	peers := fs.String("peers", "", "comma-separated cooperating proxies, each http://host:port or host:port")
	sloClasses := fs.String("slo-classes", "", `SLO classes as "name:latency:availability[:window]", comma-separated (e.g. "interactive:50ms:0.99:1m,batch:500ms:0.9"): requests tagged X-SLO-Class are accounted per class and slo.* burn-rate gauges appear on /metrics`)
	eventsPath := fs.String("events", "", "append structured JSONL state-transition events (readiness, breaker, SLO burn crossings) to this file")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown drain deadline")
	sess := obs.NewSession(fs, "hiergdd-proxy")
	fs.Parse(args)
	if err := sess.Start(); err != nil {
		return err
	}

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
	o := httpcache.Options{
		CapacityBytes: *capacity,
		Metrics:       sess.Reg,
		Tracer:        sess.Tracer,
		Events:        events,
		Peers:         strings.Split(*peers, ","),
	}
	if *sloClasses != "" {
		if o.SLOClasses, err = slo.ParseClasses(*sloClasses); err != nil {
			ln.Close()
			return err
		}
	}
	p, err := httpcache.NewProxyOpts(o)
	if err != nil {
		ln.Close()
		return err
	}
	if len(o.SLOClasses) > 0 {
		fmt.Printf("hiergdd proxy: tracking %d SLO classes\n", len(o.SLOClasses))
	}
	if *sweep > 0 {
		stop := p.StartSweeper(*sweep)
		defer stop()
	}
	fmt.Printf("hiergdd proxy: listening on %s (self=%s, %d-byte cache)\n",
		ln.Addr(), base, *capacity)

	// Construction is done: flip /readyz to 200 before the daemon takes
	// traffic.
	p.MarkReady()

	return serveDaemon(ln, p.Handler(), *drain, p.MarkDraining, func() {
		closeSession(sess)
		p.Close()
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
	eventsPath := fs.String("events", "", "append structured JSONL state-transition events (readiness) to this file")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown drain deadline")
	sess := obs.NewSession(fs, "hiergdd-cache")
	fs.Parse(args)
	if err := sess.Start(); err != nil {
		return err
	}

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
	cc := httpcache.NewClientCacheOpts(httpcache.Options{
		CapacityBytes: *capacity,
		Metrics:       sess.Reg,
		Tracer:        sess.Tracer,
		Events:        events,
	})
	if err := httpcache.Register(*proxy, addr); err != nil {
		ln.Close()
		return err
	}
	fmt.Printf("hiergdd cache: %s registered with %s (%d-byte partition)\n", addr, *proxy, *capacity)
	// Proxy registration is done: flip /readyz to 200.
	cc.MarkReady()
	return serveDaemon(ln, cc.Handler(), *drain, cc.MarkDraining, func() {
		closeSession(sess)
		cc.Close()
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
	defer topo.Stop()
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
