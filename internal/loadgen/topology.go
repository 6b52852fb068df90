package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"webcache/internal/httpcache"
	"webcache/internal/invariant"
	"webcache/internal/obs"
	"webcache/internal/obs/slo"
)

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
	// SLOClasses, when non-empty, attaches a server-side slo.Tracker
	// with these classes to every proxy (httpcache.Proxy.SetSLO), so
	// each member publishes slo.<class>.* burn-rate gauges.
	SLOClasses []slo.Class
	// Events, when non-nil, receives every daemon's structured JSONL
	// event log (one obs.EventLog per daemon, sources "proxy-<i>" /
	// "cache-<p>-<c>", writes serialized).
	Events io.Writer
	// Defenses, when non-nil, configures every proxy's chaos defenses
	// (per-hop deadlines, hedging, digest sampling, breakers).
	Defenses *httpcache.Defenses
	// Check, when non-nil, attaches a live conservation accountant to
	// every proxy (httpcache.Proxy.EnableAccounting).
	Check *invariant.Checker
	// WrapProxy / WrapCache, when non-nil, wrap each daemon's handler —
	// the chaos fault-injection hook (internal/chaos).  They receive
	// the daemon's topology indices and must return a handler.
	WrapProxy func(proxy int, h http.Handler) http.Handler
	WrapCache func(proxy, cache int, h http.Handler) http.Handler
	// Fleet wires the proxies as a consistent-hash fleet
	// (httpcache.EnableFleet with the full member roster) instead of
	// the cooperating full mesh (SetPeers).  FleetReplication is the
	// hot-object copy count k (0 = 1, partitioning only) and
	// FleetHotAfter the per-key access count that triggers replication
	// (0 = the httpcache default).
	Fleet            bool
	FleetReplication int
	FleetHotAfter    int
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
	// cacheServers[addr] maps a client-cache address to its server so
	// FlashDisconnect can kill it; closed remembers what died so Close
	// does not double-close.
	cacheServers map[string]*http.Server
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
		closed:       make(map[*http.Server]bool),
	}
	// The daemons' event logs share one writer; serialize their lines.
	var events io.Writer
	if cfg.Events != nil {
		events = &lockedWriter{w: cfg.Events}
	}
	ok := false
	defer func() {
		if !ok {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			t.Close(ctx)
		}
	}()

	// Origin: a deterministic body per object path, padded to
	// ObjectBytes so live cache occupancy matches trace cache units.
	// It declares its length and type as any real origin does; left to
	// net/http, bodies past 2 KiB would leave chunked.
	pad := strings.Repeat("x", cfg.ObjectBytes)
	length, textPlain := []string{strconv.Itoa(cfg.ObjectBytes)}, []string{"text/plain; charset=utf-8"}
	originLn, err := listen()
	if err != nil {
		return nil, err
	}
	t.serve(originLn, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := "origin:" + r.URL.Path + ":" + pad
		w.Header()["Content-Length"], w.Header()["Content-Type"] = length, textPlain
		w.Write([]byte(body[:cfg.ObjectBytes]))
	}))
	t.OriginURL = "http://" + originLn.Addr().String()

	for p := 0; p < cfg.Proxies; p++ {
		capBytes, err := pick(cfg.ProxyCapacityBytes, p)
		if err != nil {
			return nil, err
		}
		px := httpcache.NewProxy(capBytes)
		px.SetTracer(cfg.Tracer)
		pxReg := cfg.Metrics
		if cfg.MetricsPerDaemon {
			pxReg = obs.NewRegistry(fmt.Sprintf("proxy-%d", p))
			t.ProxyMetrics = append(t.ProxyMetrics, pxReg)
		}
		px.SetMetrics(pxReg)
		if len(cfg.SLOClasses) > 0 {
			px.SetSLO(slo.NewTracker(pxReg, cfg.SLOClasses, slo.DefaultThresholds))
		}
		if events != nil {
			px.SetEvents(obs.NewEventLog(fmt.Sprintf("proxy-%d", p), events))
		}
		if cfg.Defenses != nil {
			px.SetDefenses(*cfg.Defenses)
		}
		if cfg.Check != nil {
			px.EnableAccounting(cfg.Check)
		}
		ln, err := listen()
		if err != nil {
			return nil, err
		}
		ph := http.Handler(px.Handler())
		if cfg.WrapProxy != nil {
			ph = cfg.WrapProxy(p, ph)
		}
		t.serve(ln, ph)
		u := "http://" + ln.Addr().String()
		t.Proxies = append(t.Proxies, px)
		t.ProxyURLs = append(t.ProxyURLs, u)

		cacheBytes, err := pick(cfg.CacheCapacityBytes, p)
		if err != nil {
			return nil, err
		}
		var addrs []string
		for c := 0; c < cfg.CachesPerProxy; c++ {
			cc := httpcache.NewClientCache(cacheBytes)
			cc.SetTracer(cfg.Tracer)
			if cfg.MetricsPerDaemon {
				cc.SetMetrics(obs.NewRegistry(fmt.Sprintf("cache-%d-%d", p, c)))
			} else {
				cc.SetMetrics(cfg.Metrics)
			}
			if events != nil {
				cc.SetEvents(obs.NewEventLog(fmt.Sprintf("cache-%d-%d", p, c), events))
			}
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
			t.cacheServers[addr] = t.serve(cln, ch)
			if err := httpcache.Register(u, addr, nil); err != nil {
				return nil, fmt.Errorf("loadgen: %w", err)
			}
			addrs = append(addrs, addr)
		}
		t.CacheAddrs = append(t.CacheAddrs, addrs)
	}
	if cfg.Fleet {
		// Consistent-hash fleet: every proxy gets the full roster (its
		// own URL included — EnableFleet adds Self to the ring either
		// way) instead of the peer mesh.
		for p, px := range t.Proxies {
			px.EnableFleet(httpcache.FleetOptions{
				Self:         t.ProxyURLs[p],
				Members:      t.ProxyURLs,
				Replication:  cfg.FleetReplication,
				HotThreshold: cfg.FleetHotAfter,
			})
		}
	} else {
		// Cooperating full mesh.
		for p, px := range t.Proxies {
			var peers []string
			for q, u := range t.ProxyURLs {
				if q != p {
					peers = append(peers, u)
				}
			}
			px.SetPeers(peers)
		}
	}
	// Everything is registered and wired (fleet rings included): flip
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

// waitReady polls base's /readyz until it answers 200.
func waitReady(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: %s/readyz not ready after %s", base, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// lockedWriter serializes the daemons' shared event-log writer.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
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
// once).  The victims are a deterministic shuffle of the flat daemon
// list under seed; the closed servers are remembered so Close skips
// them.  Returns the downed addresses.
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
			t.closed[srv] = true
		}
	}
	return victims
}

// Close drains every server through http.Server.Shutdown under ctx's
// deadline (the graceful path bench runs rely on to stop topologies
// cleanly); servers still busy past the deadline are closed hard.
// Servers already killed by FlashDisconnect are skipped.
func (t *Topology) Close(ctx context.Context) error {
	// Drop every pooled client-side connection first.  A connection a
	// transport dialed but never sent a request on is StateNew to its
	// server, and Shutdown only reaps StateNew conns after a 5s grace —
	// leaving them open stalls every drain by exactly that long.
	for _, px := range t.Proxies {
		px.CloseIdleConnections()
	}
	http.DefaultClient.CloseIdleConnections() // registration + /stats probes
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
	return firstErr
}

// ProxyStats fetches proxy p's /stats counters over HTTP.
func (t *Topology) ProxyStats(p int) (httpcache.ProxyStats, error) {
	var st httpcache.ProxyStats
	if p < 0 || p >= len(t.ProxyURLs) {
		return st, fmt.Errorf("loadgen: proxy %d of %d", p, len(t.ProxyURLs))
	}
	resp, err := http.Get(t.ProxyURLs[p] + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
