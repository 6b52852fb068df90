package loadgen

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"webcache/internal/httpcache"
	"webcache/internal/invariant"
	"webcache/internal/obs"
	"webcache/internal/obs/slo"
	"webcache/internal/sim"
)

// LoopbackSimConfig is the Hier-GD simulator configuration every
// loopback run is sized from (CapacityPlan) and routed by (ProxyFor),
// so live and simulated runs of one workload share capacities and
// client mapping: the clients split evenly over the proxies' clusters,
// cachesPerProxy client caches in each, proxy caches 5 % and
// per-client caches 0.5 % of the infinite cache size.  Its digests are the live proxies'
// (httpcache.DigestEvery of each proxy's requests is that many times
// the proxies of all of them).
func LoopbackSimConfig(proxies, cachesPerProxy, clients int, seed int64) sim.Config {
	return sim.Config{
		Scheme:            sim.HierGD,
		NumProxies:        proxies,
		ClientsPerCluster: (clients + proxies - 1) / proxies,
		P2PClientCaches:   cachesPerProxy,
		ProxyCacheFrac:    0.05,
		ClientCacheFrac:   0.005,
		DigestInterval:    httpcache.DigestEvery * proxies,
		Seed:              seed,
	}
}

// UnitsToBytes scales a capacity plan's trace cache units to
// origin-body bytes, objectBytes per unit (TopologyConfig.ObjectBytes).
func UnitsToBytes(units []uint64, objectBytes int) []uint64 {
	out := make([]uint64, len(units))
	for i, u := range units {
		out[i] = u * uint64(objectBytes)
	}
	return out
}

// TopologyConfig sizes a loopback deployment: an origin, Proxies
// cooperating proxies (full mesh), and CachesPerProxy client-cache
// daemons registered with each.
type TopologyConfig struct {
	Proxies        int
	CachesPerProxy int
	// ProxyCapacityBytes is per-proxy (one element applies to all);
	// CacheCapacityBytes likewise per client-cache daemon.
	ProxyCapacityBytes []uint64
	CacheCapacityBytes []uint64
	// ObjectBytes is the origin's body size for every object: with the
	// simulator's unit-size traces, capacity_units * ObjectBytes byte
	// caches hold exactly capacity_units objects, keeping the live
	// topology unit-for-unit comparable with a sim capacity plan.
	ObjectBytes int
	// Tracer, when non-nil, is shared by every daemon: each records its
	// hop of a propagated trace id into the one collector (wall clock).
	Tracer *obs.Tracer
	// Metrics, when non-nil, backs every daemon's /metrics endpoint.
	// Shared: a scrape of daemon D refreshes D's gauges synchronously
	// before exposition, so each response reflects the scraped daemon.
	Metrics *obs.Registry
	// MetricsPerDaemon gives every daemon its own registry ("proxy-<i>",
	// "cache-<p>-<c>") instead of the shared Metrics — the honest
	// per-member layout the cluster aggregator scrapes, where each
	// /metrics exposes only that member's counters.  The proxy
	// registries are exposed as Topology.ProxyMetrics.
	MetricsPerDaemon bool
	// SLOClasses, when non-empty, gives every proxy a server-side
	// slo.Tracker with these classes (httpcache.Options.SLOClasses), so
	// each member publishes slo.<class>.* burn-rate gauges.
	SLOClasses []slo.Class
	// Hardened turns on every proxy's chaos defenses
	// (httpcache.Options.Hardened).
	Hardened bool
	// Check, when non-nil, attaches a live conservation accountant to
	// every proxy (httpcache.Options.Check).
	Check *invariant.Checker
	// WrapProxy / WrapCache, when non-nil, wrap each daemon's handler —
	// the chaos fault-injection hook (internal/chaos).  They receive
	// the daemon's topology indices and must return a handler.
	WrapProxy func(proxy int, h http.Handler) http.Handler
	WrapCache func(proxy, cache int, h http.Handler) http.Handler
}

// Topology is a running loopback deployment.  Everything listens on
// 127.0.0.1 ephemeral ports; Close shuts the servers down gracefully.
type Topology struct {
	OriginURL string
	ProxyURLs []string
	Proxies   []*httpcache.Proxy
	// ProxyMetrics holds each proxy's registry under MetricsPerDaemon
	// (nil otherwise) — index-aligned with Proxies/ProxyURLs.
	ProxyMetrics []*obs.Registry
	// CacheAddrs[p] lists proxy p's client-cache daemon addresses
	// (host:port, registration order) — the chaos layer's churn and
	// poison targets.
	CacheAddrs [][]string

	servers []*http.Server
	caches  []*httpcache.ClientCache
	// cacheServers[addr] and cacheDaemons[addr] map a client-cache address
	// to its server and its daemon so FlashDisconnect can kill both;
	// closed remembers what died so Close does not double-close.
	cacheServers map[string]*http.Server
	cacheDaemons map[string]*httpcache.ClientCache
	closedMu     sync.Mutex
	closed       map[*http.Server]bool
}

// pick resolves a per-index capacity from a one-or-per-index slice.
func pick(caps []uint64, i int) (uint64, error) {
	switch {
	case len(caps) == 0:
		return 0, fmt.Errorf("loadgen: empty capacity list")
	case i < len(caps):
		return caps[i], nil
	default:
		return caps[len(caps)-1], nil
	}
}

// origin is the loopback origin: a deterministic body per object path,
// "origin:<path>:" padded with x to size bytes and cut there, so live
// cache occupancy matches trace cache units.  The body is written in
// pieces from the path and one shared pad, and never built.  It declares
// its length and type as any real origin does; left to net/http, bodies
// past 2 KiB would leave chunked.
func origin(size int) http.Handler {
	pad := strings.Repeat("x", size)
	length, textPlain := []string{strconv.Itoa(size)}, []string{"text/plain; charset=utf-8"}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header()["Content-Length"], w.Header()["Content-Type"] = length, textPlain
		left := size
		for _, s := range [...]string{"origin:", r.URL.Path, ":", pad} {
			if n := min(left, len(s)); n > 0 {
				io.WriteString(w, s[:n])
				left -= n
			}
		}
	})
}

// StartLoopback stands the topology up.  On error, anything already
// started is shut down.
func StartLoopback(cfg TopologyConfig) (*Topology, error) {
	if cfg.Proxies < 1 || cfg.CachesPerProxy < 0 {
		return nil, fmt.Errorf("loadgen: bad topology %d proxies x %d caches", cfg.Proxies, cfg.CachesPerProxy)
	}
	if cfg.ObjectBytes < 1 {
		return nil, fmt.Errorf("loadgen: object size %d bytes", cfg.ObjectBytes)
	}
	t := &Topology{
		cacheServers: make(map[string]*http.Server),
		cacheDaemons: make(map[string]*httpcache.ClientCache),
		closed:       make(map[*http.Server]bool),
	}
	ok := false
	var proxyLns []net.Listener
	defer func() {
		if !ok {
			for _, ln := range proxyLns[len(t.Proxies):] {
				ln.Close() // bound, never served
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			t.Close(ctx)
		}
	}()

	originLn, err := listen()
	if err != nil {
		return nil, err
	}
	t.serve(originLn, origin(cfg.ObjectBytes))
	t.OriginURL = "http://" + originLn.Addr().String()

	// Every proxy's listener is bound first, so each daemon is built with
	// its final peer mesh and serves only once complete.
	for range cfg.Proxies {
		ln, err := listen()
		if err != nil {
			return nil, err
		}
		proxyLns = append(proxyLns, ln)
		t.ProxyURLs = append(t.ProxyURLs, "http://"+ln.Addr().String())
	}
	// daemon fills the options every daemon shares; name keys its own
	// registry (MetricsPerDaemon).
	daemon := func(name string, capBytes uint64) httpcache.Options {
		o := httpcache.Options{CapacityBytes: capBytes, Tracer: cfg.Tracer, Metrics: cfg.Metrics}
		if cfg.MetricsPerDaemon {
			o.Metrics = obs.NewRegistry(name)
		}
		return o
	}
	for p, u := range t.ProxyURLs {
		capBytes, err := pick(cfg.ProxyCapacityBytes, p)
		if err != nil {
			return nil, err
		}
		o := daemon(fmt.Sprintf("proxy-%d", p), capBytes)
		o.SLOClasses, o.Check, o.Hardened = cfg.SLOClasses, cfg.Check, cfg.Hardened
		if cfg.MetricsPerDaemon {
			t.ProxyMetrics = append(t.ProxyMetrics, o.Metrics)
		}
		o.Peers = slices.Delete(slices.Clone(t.ProxyURLs), p, p+1) // the full mesh
		px, err := httpcache.NewProxyOpts(o)
		if err != nil {
			return nil, err
		}
		ph := http.Handler(px.Handler())
		if cfg.WrapProxy != nil {
			ph = cfg.WrapProxy(p, ph)
		}
		t.serve(proxyLns[p], ph)
		t.Proxies = append(t.Proxies, px)

		cacheBytes, err := pick(cfg.CacheCapacityBytes, p)
		if err != nil {
			return nil, err
		}
		var addrs []string
		for c := 0; c < cfg.CachesPerProxy; c++ {
			cc := httpcache.NewClientCacheOpts(daemon(fmt.Sprintf("cache-%d-%d", p, c), cacheBytes))
			cln, err := listen()
			if err != nil {
				return nil, err
			}
			ch := http.Handler(cc.Handler())
			if cfg.WrapCache != nil {
				ch = cfg.WrapCache(p, c, ch)
			}
			addr := cln.Addr().String()
			t.caches = append(t.caches, cc)
			t.cacheServers[addr], t.cacheDaemons[addr] = t.serve(cln, ch), cc
			if err := httpcache.Register(u, addr); err != nil {
				return nil, fmt.Errorf("loadgen: %w", err)
			}
			addrs = append(addrs, addr)
		}
		t.CacheAddrs = append(t.CacheAddrs, addrs)
	}
	// Everything is registered and wired: flip
	// the daemons ready, then gate on every /readyz answering 200 — the
	// drivers never race a half-started topology.
	for _, px := range t.Proxies {
		px.MarkReady()
	}
	for _, cc := range t.caches {
		cc.MarkReady()
	}
	var readyURLs []string
	readyURLs = append(readyURLs, t.ProxyURLs...)
	for _, addrs := range t.CacheAddrs {
		for _, addr := range addrs {
			readyURLs = append(readyURLs, "http://"+addr)
		}
	}
	for _, u := range readyURLs {
		if err := waitReady(u, 5*time.Second); err != nil {
			return nil, err
		}
	}
	ok = true
	return t, nil
}

// waitReady polls base's /readyz until it answers 200.  Each probe is
// bounded by the time left before the deadline, so a daemon that never
// answers costs timeout and no more.
func waitReady(base string, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, "GET", base+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("loadgen: %s/readyz not ready after %s", base, timeout)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func listen() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

// serve runs an http.Server on ln and tracks it for shutdown.
func (t *Topology) serve(ln net.Listener, h http.Handler) *http.Server {
	srv := &http.Server{Handler: h}
	t.servers = append(t.servers, srv)
	go srv.Serve(ln)
	return srv
}

// FlashDisconnect hard-closes a fraction of the client-cache daemons —
// the mass-churn chaos scenario (50% of the overlay vanishing at
// once): each one's server, and the daemon itself, which ends the frame
// connections its proxy's hops ride.  The victims are a deterministic
// shuffle of the flat daemon list under seed; the closed servers are
// remembered so Close skips them.  Returns the downed addresses.
func (t *Topology) FlashDisconnect(fraction float64, seed int64) []string {
	var all []string
	for _, addrs := range t.CacheAddrs {
		all = append(all, addrs...)
	}
	sort.Strings(all)
	n := int(float64(len(all))*fraction + 0.5)
	if n <= 0 {
		return nil
	}
	if n > len(all) {
		n = len(all)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	victims := all[:n]
	t.closedMu.Lock()
	defer t.closedMu.Unlock()
	for _, addr := range victims {
		if srv := t.cacheServers[addr]; srv != nil && !t.closed[srv] {
			srv.Close()
			t.cacheDaemons[addr].Close()
			t.closed[srv] = true
		}
	}
	return victims
}

// Close drains every server through http.Server.Shutdown under ctx's
// deadline (the graceful path bench runs rely on to stop topologies
// cleanly); servers still busy past the deadline are closed hard.
// Servers already killed by FlashDisconnect are skipped.  Then every
// daemon is closed, which waits out its frame connections.
func (t *Topology) Close(ctx context.Context) error {
	// Drop every pooled client-side connection first.  A connection a
	// transport dialed but never sent a request on is StateNew to its
	// server, and Shutdown only reaps StateNew conns after a 5s grace —
	// leaving them open stalls every drain by exactly that long.
	for _, px := range t.Proxies {
		px.CloseIdleConnections()
	}
	http.DefaultClient.CloseIdleConnections() // registration probes
	var firstErr error
	for i := len(t.servers) - 1; i >= 0; i-- {
		t.closedMu.Lock()
		skip := t.closed[t.servers[i]]
		t.closedMu.Unlock()
		if skip {
			continue
		}
		if err := t.servers[i].Shutdown(ctx); err != nil {
			t.servers[i].Close()
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	for _, px := range t.Proxies {
		px.Close()
	}
	for _, cc := range t.caches {
		cc.Close()
	}
	return firstErr
}

// Stop is Close under a 5 s drain deadline: how the commands and the
// chaos runs take a topology down.
func (t *Topology) Stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	t.Close(ctx)
}

// ProxyStats reads proxy p's counters in process.
func (t *Topology) ProxyStats(p int) (httpcache.ProxyStats, error) {
	if p < 0 || p >= len(t.Proxies) {
		return httpcache.ProxyStats{}, fmt.Errorf("loadgen: proxy %d of %d", p, len(t.Proxies))
	}
	return t.Proxies[p].Stats(), nil
}
