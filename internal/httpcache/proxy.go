package httpcache

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"webcache/internal/directory"
	"webcache/internal/invariant"
	"webcache/internal/obs"
	"webcache/internal/obs/slo"
	"webcache/internal/p2p"
	"webcache/internal/pastry"
	"webcache/internal/store"
	"webcache/internal/store/disk"
)

// ProxyStats is the proxy's /stats payload: where requests were served
// from, plus pass-down and digest activity.
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
	// DigestPulls counts cooperating proxies' digests pulled and held,
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
	// DiskHits counts requests served from the proxy's persistent disk
	// tier after a memory miss (always 0 without Options.DiskDir).
	DiskHits   int `json:"disk_hits"`
	DirEntries int `json:"directory_entries"`
	ClientPool int `json:"client_caches"`
	// Defense holds the chaos-defense counters (defense.go): breaker
	// activity, digest verification, contribution sweeps, and per-hop
	// peer timeouts.
	Defense DefenseStats `json:"defense"`
	// Fleet holds the fleet-membership counters (fleet.go); zero value
	// with Enabled=false when the proxy is not a fleet member.
	Fleet FleetStats `json:"fleet"`
}

// proxyCounters is the lock-free backing for ProxyStats: every
// request-path bump is one atomic add, so the stats no longer
// serialize the data plane the way the old mutex-guarded struct did.
type proxyCounters struct {
	requests, proxyHits, clientHits, remoteHits, originFetch,
	coalesced, passDowns, diversions, storeCalls, storeRefusals,
	divertedHits, swept, diskHits atomic.Int64
	digestPulls, digestPullFails, digestSkips, digestFalsePos atomic.Int64
	// Defense counters (defense.go).
	breakerSkipped, breakerOpens, digestChecks, digestFailures,
	contribSwept, peerTimeouts atomic.Int64
}

// Proxy is the caching forward proxy of the paper's architecture: a
// sharded cache whose evictions destage into the registered client
// caches, with a lookup directory and inter-proxy cooperation.
type Proxy struct {
	store *store.Store // memory tier
	disk  *disk.Store  // persistent tier; nil without Options.DiskDir
	// tier is the serving surface: store alone, or the Tiered layering
	// when a disk tier is configured.
	tier store.Interface
	// tiers is the /fetch cascade in the order it is walked, local its
	// head that a /peer-lookup walks (tiers.go).
	tiers, local []tier
	ring         *ring
	client       *http.Client
	// probeClient is the liveness sweep's short-deadline client; a
	// probe that cannot connect within its timeout marks the daemon
	// dead.  It shares the tuned transport shape (transport.go).
	probeClient *http.Client

	stats proxyCounters

	mu  sync.Mutex
	dir *directory.Exact

	// coop is the cooperating proxies and their digests (digest.go);
	// pulls tracks the digest pulls in flight.
	coop  atomic.Pointer[peerSet]
	pulls sync.WaitGroup

	// Defense state (defense.go): knobs, per-peer breakers, per-client
	// contribution ledgers, sampled body digests, and the LAN-fetch
	// latency histogram the adaptive per-hop deadline derives from.
	defenses  Defenses
	breakers  sync.Map // peer URL -> *breaker
	contrib   sync.Map // cache addr -> *contribution
	digests   sync.Map // trace.ObjectID -> uint64 body digest
	verifySeq atomic.Int64
	lanLat    *obs.Histogram

	// acct is the live conservation oracle over pass-down receipts
	// (EnableAccounting); acctMu serializes it — the accountant itself
	// is not thread-safe.  chk is kept so a later EnableFleet can
	// attach its own replica-aware ledger to the same checker.
	acctMu sync.Mutex
	acct   *invariant.ClusterAccountant
	chk    *invariant.Checker

	// fleet is the fleet-membership runtime (fleet.go); nil unless
	// EnableFleet was called.
	fleet *fleetState

	// tracer and metrics are the observability hooks (obs.go); both nil
	// by default and nil-safe throughout.
	tracer  *obs.Tracer
	metrics *obs.Registry

	// slo is the server-side per-class error-budget tracker (health.go);
	// nil disables the accounting.
	slo *slo.Tracker

	// readiness is the /healthz + /readyz probe surface (health.go); it
	// also holds the structured event log both the breaker and the fleet
	// runtime emit to.
	readiness
}

// NewProxy creates a proxy with the given cache capacity in bytes and
// no disk tier.
func NewProxy(capacityBytes uint64) *Proxy {
	p, err := NewProxyOpts(Options{CapacityBytes: capacityBytes})
	if err != nil {
		panic(err) // unreachable: without a disk tier nothing can fail
	}
	return p
}

// NewProxyOpts creates a proxy with explicit data-plane options; it
// fails only when the disk tier cannot be opened.
func NewProxyOpts(o Options) (*Proxy, error) {
	st, dsk, tier, err := o.newTier("proxy")
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		store:       st,
		disk:        dsk,
		tier:        tier,
		ring:        newRing(),
		dir:         directory.NewExact(),
		client:      newHTTPClient(10 * time.Second),
		probeClient: newHTTPClient(2 * time.Second),
		lanLat:      &obs.Histogram{},
	}
	p.defenses.fillDefaults()
	p.local, p.tiers = p.cascade()
	p.coop.Store(&peerSet{})
	return p, nil
}

// SetPeers configures the cooperating proxy cluster, by base URL.  No
// digest is held of any of them until the first pull.
func (p *Proxy) SetPeers(urls []string) {
	set := &peerSet{bases: append([]string(nil), urls...), digests: make(map[string]*peerDigest, len(urls))}
	for _, u := range urls {
		set.digests[u] = &peerDigest{}
	}
	p.coop.Store(set)
}

// Store exposes the proxy's sharded memory store (tests and
// telemetry).
func (p *Proxy) Store() *store.Store { return p.store }

// Disk exposes the persistent tier (nil without Options.DiskDir).
func (p *Proxy) Disk() *disk.Store { return p.disk }

// Sync blocks until every acknowledged insert is durable on disk
// (trivially true without a disk tier).
func (p *Proxy) Sync() bool {
	if p.disk == nil {
		return true
	}
	return p.disk.Sync()
}

// Close waits out the digest pulls in flight (each bounded by the
// per-hop deadline), then drains the disk tier's write-behind queue and
// closes its files.  Call after the HTTP listener has drained, so every
// acknowledged insert is journaled before exit.
func (p *Proxy) Close() error {
	p.pulls.Wait()
	if p.disk == nil {
		return nil
	}
	return p.disk.Close()
}

// Handler returns the proxy's HTTP interface:
//
//	GET  /fetch?url=U        the client entry point
//	GET  /peer-lookup?key=K  a cooperating proxy asking for an object
//	GET  /digest             what /peer-lookup can serve, as a Bloom filter
//	POST /register?addr=A    a client cache joining the cluster
//	GET  /stats              counters
//	GET  /healthz            liveness probe (health.go)
//	GET  /readyz             readiness probe (health.go)
//	/fleet/*                 fleet membership + replication (fleet.go;
//	                         503 until EnableFleet)
func (p *Proxy) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /fetch", p.withSLO(p.handleFetch))
	mux.HandleFunc("GET /peer-lookup", p.handlePeerLookup)
	mux.HandleFunc("GET /digest", p.handleDigest)
	mux.HandleFunc("POST /register", p.handleRegister)
	mux.HandleFunc("GET /stats", p.handleStats)
	mux.HandleFunc("GET /metrics", p.handleMetrics)
	p.registerHealth(mux)
	p.fleetHandlers(mux)
	return mux
}

// registerBody is the optional JSON payload of POST /register: the
// hex objectIds a restarting daemon's disk tier recovered, so the
// proxy's lookup directory re-learns what the cluster still holds.
type registerBody struct {
	Recovered []string `json:"recovered"`
}

// registerBodyMax caps the /register payload: 1 MiB holds ~30k
// recovered keys, far beyond any real daemon's disk tier.
const registerBodyMax = 1 << 20

// registerTimeout bounds one POST /register: a proxy that accepts the
// connection and never answers must not hold a daemon's start-up.
const registerTimeout = 10 * time.Second

// Register joins the client cache at addr (host:port) to the proxy at
// proxyURL, announcing the hex objectIds its disk tier recovered, if
// any.  Any answer but 200 is an error: the proxy refused the daemon
// (400, or 413 for a recovered list over registerBodyMax) and it is
// not on the proxy's ring.
func Register(proxyURL, addr string, recovered []string) error {
	var body io.Reader
	contentType := "text/plain"
	if len(recovered) > 0 {
		b, _ := json.Marshal(registerBody{Recovered: recovered}) // a []string always marshals
		body, contentType = bytes.NewReader(b), "application/json"
	}
	client := http.Client{Timeout: registerTimeout}
	resp, err := client.Post(fmt.Sprintf("%s/register?addr=%s", proxyURL, addr), contentType, body)
	if err != nil {
		return fmt.Errorf("registering %s with %s: %w", addr, proxyURL, err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("registering %s with %s: proxy answered %s", addr, proxyURL, resp.Status)
	}
	return nil
}

func (p *Proxy) handleRegister(w http.ResponseWriter, r *http.Request) {
	addr := queryParam(r.URL.RawQuery, "addr")
	if addr == "" {
		http.Error(w, "missing addr", http.StatusBadRequest)
		return
	}
	// The body is optional and best-effort: a plain registration (no
	// body, or a non-JSON one) registers with an empty recovered set.
	// It is still size-capped — a byzantine client streaming an
	// unbounded recovered list is rejected with 413 instead of being
	// buffered into proxy memory.
	var body registerBody
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, registerBodyMax)).Decode(&body); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, "registration body too large", http.StatusRequestEntityTooLarge)
			return
		}
		// Non-JSON or empty body: plain registration.
	}
	id := p.ring.add(addr)
	if len(body.Recovered) > 0 {
		// Directory entries route through ring.owner, which may name a
		// neighbour of the daemon that actually holds the object — the
		// client-cache tier of /fetch probes neighbours on an owner
		// miss, so recovered objects stay reachable either way.
		keys := foldHex(body.Recovered)
		p.mu.Lock()
		for _, key := range keys {
			p.dir.Add(key)
		}
		p.mu.Unlock()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"cacheId": id.String()})
}

// originFetch GETs the object body from its origin server.
func (p *Proxy) originFetch(url string) ([]byte, error) {
	resp, err := p.client.Get(url)
	if err != nil {
		return nil, err
	}
	body, err := readBody(resp.Body, resp.ContentLength)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("reading origin body: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("origin status %d", resp.StatusCode)
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
func (p *Proxy) lanFetch(ctx context.Context, addr string, id pastry.ID, traceID string) ([]byte, bool) {
	start := time.Now()
	rep, err := p.hop(ctx, peer{clientCache, addr}, "GET", "/object?key="+id.String(), nil, traceID)
	if err != nil || rep.status != http.StatusOK {
		return nil, false
	}
	p.lanLat.Observe(time.Since(start))
	p.contribFor(addr).serves.Add(1)
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
	owner, ok := p.ring.owner(id)
	if !ok {
		return // no client caches registered: the object is dropped
	}
	var rec *StoreReceipt
	var ownerErr error
	diverted := false
	for i, cand := range p.ring.candidates(owner) {
		if !p.ring.mayFit(cand, len(obj.Body)) {
			continue
		}
		r, err := p.storeAt(cand, obj, true)
		if i == 0 {
			ownerErr = err
		}
		if r != nil {
			rec, diverted = r, i > 0
			break
		}
	}
	if diverted {
		p.stats.diversions.Add(1)
	}
	if rec == nil {
		if ownerErr != nil {
			return // the owner just hung or died: not asked twice, the object is lost
		}
		if rec, _ = p.storeAt(owner, obj, false); rec == nil {
			return
		}
	}
	p.stats.passDowns.Add(1)
	folded, evicted := fold(id), foldHex(rec.Evicted)
	p.recordReceipt(p2p.Receipt{Stored: folded, StoredOK: rec.Stored, Diverted: diverted, Evicted: evicted})
	p.mu.Lock()
	if rec.Stored {
		p.dir.Add(folded)
	}
	for _, ev := range evicted {
		p.dir.Remove(ev)
	}
	p.mu.Unlock()
	if rec.Stored {
		p.recordDigest(folded, obj.Body)
	}
	for _, ev := range evicted {
		p.dropDigest(ev)
	}
}

// storeAt POSTs one evicted object to a client cache, with ifFree as a
// trial the daemon refuses rather than evict for.  The returns split
// the daemon's health from its answer: a receipt when it stored,
// (nil, nil) when it refused, an error when it did not answer or made
// no sense.  The hop does not descend from the /fetch that evicted: the
// object has already left the proxy, and a requester hanging up must
// not lose it.
func (p *Proxy) storeAt(target string, obj store.Object, ifFree bool) (*StoreReceipt, error) {
	path := "/store?key=" + obj.HexKey + "&cost=" + strconv.FormatFloat(obj.Cost, 'g', -1, 64)
	if ifFree {
		path += "&ifFree=1"
	}
	p.stats.storeCalls.Add(1)
	rep, err := p.hop(context.Background(), peer{clientCache, target}, "POST", path, obj.Body, "")
	if err != nil {
		return nil, err
	}
	if free, err := strconv.ParseInt(rep.header.Get(FreeHeader), 10, 64); err == nil && free >= 0 {
		p.ring.noteFree(target, free)
	}
	if rep.status != http.StatusOK {
		if rep.status == http.StatusInsufficientStorage {
			p.stats.storeRefusals.Add(1)
			return nil, nil
		}
		return nil, fmt.Errorf("store at %s: status %d", target, rep.status)
	}
	var rec StoreReceipt
	if err := json.Unmarshal(rep.body, &rec); err != nil {
		return nil, fmt.Errorf("store at %s: reading receipt: %w", target, err)
	}
	return &rec, nil
}

// SweepClientCaches probes every registered client-cache daemon once
// (GET /stats on the short-deadline probe client) and deregisters the
// ones that do not answer, so a crashed daemon stops poisoning its
// key range (its keys re-home to the ring neighbours).  It returns
// the deregistered addresses.
func (p *Proxy) SweepClientCaches() []string {
	var removed []string
	for _, addr := range p.ring.addresses() {
		// Contribution condemnation first: a daemon whose strike
		// ledger (timeouts + weighted digest failures) outweighs its
		// serves is evicted even if it still answers probes — a
		// byzantine or tail-amplifying client is worse than a dead one.
		if p.contribCondemned(addr) {
			p.ring.remove(addr)
			p.contrib.Delete(addr)
			p.stats.contribSwept.Add(1)
			removed = append(removed, addr)
			continue
		}
		resp, err := p.probeClient.Get(fmt.Sprintf("http://%s/stats", addr))
		if err != nil {
			p.ring.remove(addr)
			p.stats.swept.Add(1)
			removed = append(removed, addr)
			continue
		}
		drainClose(resp.Body)
	}
	return removed
}

// StartSweeper runs SweepClientCaches every interval until the
// returned stop func is called.  The passive paths (lanFetch and
// pass-down connection failures) already deregister daemons they
// catch dying; the sweep is the active guarantee that a daemon
// crashing while idle is still evicted from the ring.
func (p *Proxy) StartSweeper(interval time.Duration) (stop func()) {
	return every(interval, func() { p.SweepClientCaches() })
}

// every runs f each interval on a goroutine of its own until the
// returned stop func is called (any number of times).
func every(interval time.Duration, f func()) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				f()
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// snapshotStats reads the lock-free counters into the /stats payload.
func (p *Proxy) snapshotStats() ProxyStats {
	p.mu.Lock()
	dirLen := p.dir.Len()
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
		DiskHits:         int(p.stats.diskHits.Load()),
		DirEntries:       dirLen,
		Defense: DefenseStats{
			BreakerSkipped: int(p.stats.breakerSkipped.Load()),
			BreakerOpens:   int(p.stats.breakerOpens.Load()),
			DigestChecks:   int(p.stats.digestChecks.Load()),
			DigestFailures: int(p.stats.digestFailures.Load()),
			ContribSwept:   int(p.stats.contribSwept.Load()),
			PeerTimeouts:   int(p.stats.peerTimeouts.Load()),
		},
		Fleet: p.snapshotFleet(),
	}
}

func (p *Proxy) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := p.snapshotStats()
	st.ClientPool = p.ring.size()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}
