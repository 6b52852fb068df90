package httpcache

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webcache/internal/bloom"
	"webcache/internal/invariant"
	"webcache/internal/obs"
	"webcache/internal/obs/slo"
	"webcache/internal/p2p"
	"webcache/internal/pastry"
	"webcache/internal/store"
	"webcache/internal/trace"
)

// ProxyStats is a snapshot of the proxy's counters: where requests were
// served from, plus pass-down and digest activity.  The ones a scrape
// reads are published on /metrics as httpcache.proxy.* gauges
// (publishStats).
type ProxyStats struct {
	Requests    int `json:"requests"`
	ProxyHits   int `json:"proxy_hits"`
	ClientHits  int `json:"client_hits"`
	RemoteHits  int `json:"remote_hits"`
	OriginFetch int `json:"origin_fetches"`
	// CoalescedFetches counts requests served from another request's
	// in-flight origin fetch (singleflight miss coalescing): a
	// thundering herd of N requests on one URL costs one OriginFetch
	// and N-1 CoalescedFetches.
	CoalescedFetches int `json:"coalesced_fetches"`
	PassDowns        int `json:"pass_downs"`
	Diversions       int `json:"diversions"`
	// StoreCalls counts the /store POSTs pass-down sent and
	// StoreRefusals the ones a daemon refused (507 to an ifFree trial),
	// so StoreCalls / PassDowns is what one pass-down costs in LAN round
	// trips: 1 when the proxy knows who has room, up to 4 when it finds
	// out by trial.
	StoreCalls    int `json:"store_calls"`
	StoreRefusals int `json:"store_refusals"`
	// DivertedHits counts client-cache hits served through the
	// diversion passthrough: the owner missed but a ring neighbour
	// (where an ifFree store diverted the object) had it.
	DivertedHits int `json:"diverted_hits"`
	// DigestPulls counts the pulls that brought a peer's digest to hold,
	// DigestPullFails the pulls that brought none (refused, hung, not 200,
	// malformed), each dropping the digest held.  DigestSkips counts peers
	// not asked because their digest said no, DigestFalsePos peers asked on
	// their digest's word that answered 404 (digest.go).
	DigestPulls     int `json:"digest_pulls"`
	DigestPullFails int `json:"digest_pull_fails"`
	DigestSkips     int `json:"digest_skips"`
	DigestFalsePos  int `json:"digest_false_pos"`
	// SweptCaches counts client-cache daemons the liveness sweep
	// deregistered after a failed probe.
	SweptCaches int `json:"swept_caches"`
	DirEntries  int `json:"directory_entries"`
	ClientPool  int `json:"client_caches"`
	// Defense holds the chaos-defense counters (defense.go): breaker
	// activity, digest verification, contribution sweeps, and per-hop
	// peer timeouts.
	Defense DefenseStats `json:"defense"`
}

// proxyCounters is the lock-free backing for ProxyStats: every
// request-path bump is one atomic add, so the stats no longer
// serialize the data plane the way the old mutex-guarded struct did.
type proxyCounters struct {
	requests, proxyHits, clientHits, remoteHits, originFetch,
	coalesced, passDowns, diversions, storeCalls, storeRefusals,
	divertedHits, swept atomic.Int64
	digestPulls, digestPullFails, digestSkips, digestFalsePos atomic.Int64
	// originReplies counts the replies sent with X-Served-By origin:
	// what the requesters saw come from origin, coalesced waiters
	// included.  It is published as httpcache.proxy.origin_replies only.
	originReplies atomic.Int64
	// Defense counters (defense.go).
	breakerSkipped, breakerOpens, digestChecks, digestFailures,
	contribSwept, peerTimeouts atomic.Int64
}

// Proxy is the caching forward proxy of the paper's architecture: a
// greedy-dual cache whose evictions destage into the registered client
// caches, with a lookup directory and inter-proxy cooperation.
type Proxy struct {
	storage
	// tiers is the /fetch cascade in the order it is walked, local its
	// head that a /peer-lookup walks (tiers.go).
	tiers, local []tier
	ring         ring
	// coop is the cooperating proxies, in the order they are asked.
	coop []*peer
	// hops carries every hop to another daemon of the federation
	// (frame.go), origins every GET to an origin server (originFetch).
	hops    *connPool
	origins *Transport

	stats proxyCounters

	// dir is the lookup directory (§4.2), booked from store receipts:
	// what the client caches hold, each listing with the FNV-1a digest of
	// the body passed down on a hardened proxy (bodyDigest) and 0
	// otherwise.  list and unlist are its only writers.
	mu  sync.Mutex
	dir map[trace.ObjectID]uint64
	// summary is the digest /digest publishes (digest.go): every key the
	// store holds and every key dir lists, counted in and out under the
	// store's lock and p.mu as each changes.
	summary *bloom.Summary

	// pulls tracks the digest pulls in flight (digest.go).
	pulls sync.WaitGroup

	// Defense state (defense.go): the switch, the serve count digest
	// sampling runs on, and the LAN-fetch latency histogram the adaptive
	// per-hop deadline derives from.  Breakers and contribution ledgers
	// are kept on the records, each body's digest in dir.
	hardened  bool
	verifySeq atomic.Int64
	lanLat    *obs.Histogram

	// acct is the live conservation oracle over pass-down receipts (nil
	// without Options.Check); acctMu serializes it — the accountant
	// itself is not thread-safe.
	acctMu sync.Mutex
	acct   *invariant.ClusterAccountant

	// tracer and metrics are the observability hooks (obs.go); both nil
	// by default and nil-safe throughout.
	tracer  *obs.Tracer
	metrics *obs.Registry

	// slo is the server-side per-class error-budget tracker (health.go);
	// nil without Options.SLOClasses.
	slo *slo.Tracker

	// readiness is the /healthz + /readyz probe surface (health.go); it
	// also holds the structured event log the breaker emits to.
	readiness

	// frames serves the hops other daemons make to this one (frame.go).
	frames frameServer
}

// NewProxyOpts creates a proxy from o, complete: its cascade, ledger,
// cooperating proxies and SLO tracker are built here and never changed
// after.  It fails on a Peers entry a hop cannot dial (parsePeers).
func NewProxyOpts(o Options) (*Proxy, error) {
	coop, err := parsePeers(o.Peers)
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		coop:      coop,
		summary:   bloom.NewSummary(digestKeys, digestFPRate),
		dir:       make(map[trace.ObjectID]uint64),
		hops:      newConnPool(dialTCP, true),
		origins:   NewTransport(),
		lanLat:    &obs.Histogram{},
		hardened:  o.Hardened,
		acct:      lenientAccountant(o.Check, "live"),
		tracer:    o.Tracer,
		metrics:   o.Metrics,
		readiness: readiness{events: o.Events},
	}
	// The store counts each key it inserts or evicts into the summary,
	// under its lock.
	p.storage = o.newStorage("proxy", func(key trace.ObjectID, in bool) {
		if in {
			p.summary.Add(uint64(key))
		} else {
			p.summary.Remove(uint64(key))
		}
	})
	if len(o.SLOClasses) > 0 {
		p.slo = slo.NewTracker(o.Metrics, o.SLOClasses)
		p.slo.SetEvents(o.Events)
	}
	p.local, p.tiers = p.cascade()
	return p, nil
}

// parsePeers makes the cooperating proxies' records from Options.Peers,
// dropping blank entries.  Operator shorthand is taken ("host:port",
// stray spaces, a trailing slash).  A hop is a frame on plain TCP behind
// an Upgrade to the root handler, dialled at the entry's host and port,
// so an entry with any scheme but http, without a host or a port, or
// with a path, query, fragment or user, is refused: no hop could reach
// what it names.
func parsePeers(in []string) ([]*peer, error) {
	var out []*peer
	for _, raw := range in {
		s := strings.TrimSpace(raw)
		if s == "" {
			continue
		}
		if !strings.Contains(s, "://") {
			s = "http://" + s
		}
		u, err := url.Parse(s)
		switch {
		case err != nil:
			return nil, fmt.Errorf("httpcache: peer %q: %w", raw, err)
		case u.Scheme != "http":
			return nil, fmt.Errorf("httpcache: peer %q: scheme %q, but hops are plain TCP: only http:// peers can be dialled", raw, u.Scheme)
		case u.Hostname() == "" || u.Port() == "":
			return nil, fmt.Errorf("httpcache: peer %q names no host and port to dial: give http://host:port", raw)
		case strings.TrimRight(u.Path, "/") != "" || u.RawQuery != "" || u.Fragment != "" || u.User != nil:
			return nil, fmt.Errorf("httpcache: peer %q has a path, query or user, but hops go to the peer's root handler: give http://host:port", raw)
		}
		out = append(out, &peer{kind: coopProxy, addr: u.Host, base: "http://" + u.Host})
	}
	return out, nil
}

// Close waits out the digest pulls in flight (each bounded by the
// per-hop deadline), drops its pooled connections, then closes its frame
// connections as a client cache does.
func (p *Proxy) Close() {
	p.pulls.Wait()
	p.CloseIdleConnections()
	p.frames.Close()
}

// Handler returns the proxy's HTTP interface:
//
//	GET  /fetch?url=U        the client entry point
//	GET  /peer-lookup?key=K  a cooperating proxy asking for an object
//	GET  /digest             what /peer-lookup can serve, as a Bloom filter
//	POST /register?addr=A    a client cache joining the cluster
//	GET  /metrics            counters and gauges (Prometheus text)
//	GET  /healthz            liveness probe (health.go)
//	GET  /readyz             readiness probe (health.go)
//	GET  /frames             the upgrade to frames (frame.go), on which
//	                         /peer-lookup and /digest are asked
func (p *Proxy) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /fetch", p.withSLO(p.handleFetch))
	mux.HandleFunc("GET /peer-lookup", p.handlePeerLookup)
	mux.HandleFunc("GET /digest", p.handleDigest)
	mux.HandleFunc("POST /register", p.handleRegister)
	mux.HandleFunc("GET /metrics", p.handleMetrics)
	p.registerHealth(mux)
	mux.Handle("GET "+framePath, &p.frames)
	return mux
}

// registerTimeout bounds one POST /register: a proxy that accepts the
// connection and never answers must not hold a daemon's start-up.
const registerTimeout = 10 * time.Second

// Register joins the client cache at addr (host:port) to the proxy at
// proxyURL.  Any answer but 200 is an error: the proxy refused the
// daemon (400) and it is not on the proxy's ring.
func Register(proxyURL, addr string) error {
	client := http.Client{Timeout: registerTimeout}
	resp, err := client.Post(proxyURL+"/register?addr="+url.QueryEscape(addr), "text/plain", nil)
	if err != nil {
		return fmt.Errorf("registering %s with %s: %w", addr, proxyURL, err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("registering %s with %s: proxy answered %s", addr, proxyURL, resp.Status)
	}
	return nil
}

// handleRegister puts the daemon at addr on the ring and answers its
// ring id in 32 hex digits.  A registration names an address and
// nothing else: a body is not read, so no caller can list directory
// entries on its own word.  An addr a hop could not dial (not
// host:port, as parsePeers asks of a peer) is refused.
func (p *Proxy) handleRegister(w http.ResponseWriter, r *http.Request) {
	addr := queryParam(r.URL.RawQuery, "addr")
	if host, port, err := net.SplitHostPort(addr); err != nil || host == "" || port == "" {
		http.Error(w, "addr must be host:port", http.StatusBadRequest)
		return
	}
	m := p.ring.add(addr)
	w.Header().Set("Content-Type", "text/plain")
	w.Write([]byte(m.id.String()))
}

// originTimeout bounds one Transport exchange, an origin GET or a load
// generator's request, dial, reply and body together.
const originTimeout = 10 * time.Second

// originFetch GETs the object body from its origin server through the
// proxy's Transport, under one deadline, originTimeout from now.  The GET
// is made for no requester (the coalescer's flight outlives any one), so
// nothing but the deadline ends it.  It reads the reply's status and
// length from the connection's parsed head, so no http.Response or
// Header is built.  Any reply but a 200 is an error, redirects included.
func (p *Proxy) originFetch(rawURL string) ([]byte, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, err
	}
	addr, err := poolAddr(u)
	if err == nil {
		err = checkGet(u, u.Host, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("origin URL %q: %w", rawURL, err)
	}
	c, err := p.origins.get(context.Background(), addr, u, u.Host, nil, false)
	if err != nil {
		return nil, err
	}
	defer c.body.Close()
	if c.head.code != http.StatusOK {
		return nil, fmt.Errorf("origin status %d", c.head.code)
	}
	body, err := readBody(&c.body, c.head.length)
	if err != nil {
		return nil, fmt.Errorf("reading origin body: %w", err)
	}
	return body, nil
}

// Greedy-dual costs mirror the latency model: origin fetches are the
// expensive ones, remote-proxy fetches cheap.
const (
	originCost = 1.0
	remoteCost = 0.1
)

// lanFetch pulls an object from one of this proxy's own client caches
// (same intranet — direct connections are allowed here; it is only
// *cross-organization* connections the firewall forbids, which is why a
// cooperating proxy's lookup is relayed through this proxy instead).
func (p *Proxy) lanFetch(ctx context.Context, to *peer, id pastry.ID, traceID string) ([]byte, bool) {
	start := time.Now()
	rep, err := p.hop(ctx, to, request{route: routeObject, key: id}, nil, traceID)
	if err != nil || rep.status != http.StatusOK {
		return nil, false
	}
	p.lanLat.Observe(time.Since(start))
	to.ledger.serves.Add(1)
	return rep.body, true
}

// passDown routes one evicted object into the client caches: to its
// ring owner if that has room, else to the first of the owner's two
// ring neighbours that has (a diversion, §4.3; the neighbours are the
// HTTP stand-in for the leaf set), else to the owner regardless, which
// replaces (Figure 1, line 12).  Who has room is read from the headroom
// each daemon reports on its /store replies, so at steady state — every
// cache full and known to be — the object crosses the LAN once.  A
// member whose figure is unknown is asked with a trial (ifFree) store,
// and so is one whose figure turns out stale: its 507 corrects the
// figure and the next candidate follows, which is the whole sequence
// when nothing is known.
func (p *Proxy) passDown(obj store.Object) {
	id, _ := hexID(obj.HexKey) // the store holds only keys parseKey took
	owner := p.ring.owner(id)
	if owner == nil {
		return // no client caches registered: the object is dropped
	}
	var rec p2p.Receipt
	var ownerErr error
	placed := false
	var cands [3]*peer
	for i, cand := range p.ring.candidates(cands[:0], owner) {
		if !p.ring.mayFit(cand, len(obj.Body)) {
			continue
		}
		r, ok, err := p.storeAt(cand, obj, true)
		if i == 0 {
			ownerErr = err
		}
		if ok {
			rec, placed = r, true
			rec.Diverted = i > 0
			break
		}
	}
	if rec.Diverted {
		p.stats.diversions.Add(1)
	}
	if !placed {
		if ownerErr != nil {
			return // the owner just hung or died: not asked twice, the object is lost
		}
		if rec, placed, _ = p.storeAt(owner, obj, false); !placed {
			return
		}
	}
	rec.Stored = fold(id)
	p.stats.passDowns.Add(1)
	p.applyReceipt(rec, obj.Body)
}

// applyReceipt books what a client cache's store receipt says it did
// with one passed-down body, once for the ledger and once in the
// directory: the stored key listed with its body's digest, the evicted
// ones unlisted.
func (p *Proxy) applyReceipt(rec p2p.Receipt, body []byte) {
	p.recordReceipt(rec)
	var sum uint64
	if rec.StoredOK && p.hardened {
		sum = bodyDigest(body)
	}
	p.mu.Lock()
	if rec.StoredOK {
		p.list(rec.Stored, sum)
	}
	for _, ev := range rec.Evicted {
		p.unlist(ev)
	}
	p.mu.Unlock()
}

// list enters key in the directory with its body's digest, and unlist
// takes it out; both run under p.mu and count the key in or out of the
// digest summary as its listing comes or goes.
func (p *Proxy) list(key trace.ObjectID, sum uint64) {
	if _, listed := p.dir[key]; !listed {
		p.summary.Add(uint64(key))
	}
	p.dir[key] = sum
}

func (p *Proxy) unlist(key trace.ObjectID) {
	if _, listed := p.dir[key]; listed {
		delete(p.dir, key)
		p.summary.Remove(uint64(key))
	}
}

// storeAt POSTs one evicted object to a client cache, with ifFree as a
// trial the daemon refuses rather than evict for.  The returns split
// the daemon's health from its answer: its receipt and true when it
// stored, false and no error when it refused, an error when it did not
// answer or made no sense.  The hop does not descend from the /fetch
// that evicted: the object has already left the proxy, and a requester
// hanging up must not lose it.
func (p *Proxy) storeAt(to *peer, obj store.Object, ifFree bool) (p2p.Receipt, bool, error) {
	id, _ := hexID(obj.HexKey)
	p.stats.storeCalls.Add(1)
	rep, err := p.hop(context.Background(), to, request{route: routeStore, key: id, cost: obj.Cost, ifFree: ifFree}, obj.Body, "")
	if err != nil {
		return p2p.Receipt{}, false, err
	}
	if rep.free >= 0 {
		to.free.Store(rep.free)
	}
	if rep.status != http.StatusOK {
		if rep.status == http.StatusInsufficientStorage {
			p.stats.storeRefusals.Add(1)
			return p2p.Receipt{}, false, nil
		}
		return p2p.Receipt{}, false, fmt.Errorf("store at %s: status %d", to.addr, rep.status)
	}
	rec, err := decodeReceipt(rep.body)
	if err != nil {
		return p2p.Receipt{}, false, fmt.Errorf("store at %s: reading receipt: %w", to.addr, err)
	}
	return rec, true, nil
}

// sweepTimeout is how long a liveness probe waits for its reply.
const sweepTimeout = 2 * time.Second

// SweepClientCaches probes every registered client-cache daemon once
// (GET /healthz, a frame under its own sweepTimeout deadline) and
// deregisters the ones that bring back no reply in time, so a crashed
// daemon stops poisoning its key range (its keys re-home to the ring
// neighbours).  Unlike hop's rule, a timeout here is a death, not a
// strike: the probe asks nothing a live daemon could be slow at.  It
// returns the deregistered addresses.  A record the sweep drops takes
// its ledger with it.
func (p *Proxy) SweepClientCaches() []string {
	var removed []string
	for _, m := range p.ring.snapshot() {
		// Contribution condemnation first: a daemon whose strike
		// ledger (timeouts + weighted digest failures) outweighs its
		// serves is evicted even if it still answers probes — a
		// byzantine or tail-amplifying client is worse than a dead one.
		if m.ledger.condemned() {
			p.ring.remove(m)
			p.stats.contribSwept.Add(1)
			removed = append(removed, m.addr)
			continue
		}
		_, err := p.hops.exchange(context.Background(), sweepTimeout, m.addr, request{route: "/healthz"}, nil, "")
		if err != nil {
			p.ring.remove(m)
			p.stats.swept.Add(1)
			removed = append(removed, m.addr)
		}
	}
	return removed
}

// StartSweeper runs SweepClientCaches every interval until the
// returned stop func is called (any number of times).  The passive
// paths (lanFetch and pass-down connection failures) already
// deregister daemons they catch dying; the sweep is the active
// guarantee that a daemon crashing while idle is still evicted from
// the ring.
func (p *Proxy) StartSweeper(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				p.SweepClientCaches()
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// snapshotStats reads the lock-free counters; ClientPool is left 0.
func (p *Proxy) snapshotStats() ProxyStats {
	p.mu.Lock()
	dirLen := len(p.dir)
	p.mu.Unlock()
	return ProxyStats{
		Requests:         int(p.stats.requests.Load()),
		ProxyHits:        int(p.stats.proxyHits.Load()),
		ClientHits:       int(p.stats.clientHits.Load()),
		RemoteHits:       int(p.stats.remoteHits.Load()),
		OriginFetch:      int(p.stats.originFetch.Load()),
		CoalescedFetches: int(p.stats.coalesced.Load()),
		PassDowns:        int(p.stats.passDowns.Load()),
		Diversions:       int(p.stats.diversions.Load()),
		StoreCalls:       int(p.stats.storeCalls.Load()),
		StoreRefusals:    int(p.stats.storeRefusals.Load()),
		DivertedHits:     int(p.stats.divertedHits.Load()),
		DigestPulls:      int(p.stats.digestPulls.Load()),
		DigestPullFails:  int(p.stats.digestPullFails.Load()),
		DigestSkips:      int(p.stats.digestSkips.Load()),
		DigestFalsePos:   int(p.stats.digestFalsePos.Load()),
		SweptCaches:      int(p.stats.swept.Load()),
		DirEntries:       dirLen,
		Defense: DefenseStats{
			BreakerSkipped: int(p.stats.breakerSkipped.Load()),
			BreakerOpens:   int(p.stats.breakerOpens.Load()),
			DigestChecks:   int(p.stats.digestChecks.Load()),
			DigestFailures: int(p.stats.digestFailures.Load()),
			ContribSwept:   int(p.stats.contribSwept.Load()),
			PeerTimeouts:   int(p.stats.peerTimeouts.Load()),
		},
	}
}

// Stats reads the proxy's counters, the client-cache ring's size
// included.
func (p *Proxy) Stats() ProxyStats {
	st := p.snapshotStats()
	st.ClientPool = p.ring.size()
	return st
}
