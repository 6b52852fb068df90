package httpcache

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"

	"webcache/internal/invariant"
	"webcache/internal/obs"
	"webcache/internal/obs/slo"
	"webcache/internal/p2p"
	"webcache/internal/pastry"
	"webcache/internal/store"
	"webcache/internal/trace"
)

// fold compresses a 128-bit objectId into the 64-bit key the
// replacement policies use (pastry.ID.Fold).  A birthday collision
// would need ~2^32 distinct URLs in one cache — beyond any browser
// cache; the full hex key is kept alongside the body for exactness on
// the wire.
func fold(id pastry.ID) trace.ObjectID {
	return trace.ObjectID(id.Fold())
}

// Options is everything a daemon is built from; nothing is attached
// after its constructor returns.  The daemon's store runs greedy-dual,
// the policy the paper runs everywhere (§4.4).  Every field but
// CapacityBytes is off at its zero value.
type Options struct {
	// CapacityBytes is the memory cache byte budget.
	CapacityBytes uint64
	// Metrics backs /metrics (nil serves an empty, valid exposition),
	// and the store's store.* instruments attach to it.
	Metrics *obs.Registry
	// Tracer records the daemon's request spans (wall clock); nil
	// disables tracing at zero cost.
	Tracer *obs.Tracer
	// Events receives the daemon's state transitions: readiness flips
	// and, on a proxy, breaker and SLO burn events.
	Events *obs.EventLog

	// The fields below configure a proxy; a client cache ignores them.

	// SLOClasses accounts every /fetch against the class its
	// X-SLO-Class header names (unknown ones fold into the first) and
	// publishes slo.* burn-rate gauges on Metrics.
	SLOClasses []slo.Class
	// Hardened turns on the request-path defenses (defense.go): a tight
	// adaptive per-hop deadline, digest sampling of client serves, and
	// per-peer circuit breakers.  Off, a hop is bounded by 2 s and
	// nothing else.
	Hardened bool
	// Peers are the cooperating proxies, by base URL or host:port.
	Peers []string
	// Check, when non-nil, threads a live conservation oracle through the
	// pass-down receipt stream (ReconcileAccounting).
	Check *invariant.Checker
}

// storage is the memory store both daemons embed.
type storage struct {
	store *store.Store
}

// newStorage builds a daemon's store, which tells changes, when it is
// not nil, of each key it inserts or evicts (store.Config.Changes).
func (o Options) newStorage(label string, changes func(trace.ObjectID, bool)) storage {
	mem, _ := store.New(store.Config{CapacityBytes: o.CapacityBytes, Label: label, Metrics: o.Metrics, Changes: changes}) // never fails
	return storage{mem}
}

// Store exposes the daemon's memory store (tests and telemetry).
func (s *storage) Store() *store.Store { return s.store }

// ClientCacheStats is a snapshot of the daemon's counters, published
// on /metrics as httpcache.cache.* gauges.
type ClientCacheStats struct {
	Objects int `json:"objects"`
	Hits    int `json:"hits"`
	Misses  int `json:"misses"`
	Stores  int `json:"stores"`
}

// clientCounters is the lock-free backing for ClientCacheStats.
type clientCounters struct {
	hits, misses, stores atomic.Int64
}

// ClientCache is a browser-cache daemon: the cooperative partition of
// one client machine's cache, serving its local proxy over HTTP.
type ClientCache struct {
	storage
	stats clientCounters

	// tracer and metrics are the observability hooks (obs.go).
	tracer  *obs.Tracer
	metrics *obs.Registry

	// readiness is the /healthz + /readyz probe surface (health.go).
	readiness

	// frames serves the proxy's hops to this daemon (frame.go).
	frames frameServer
}

// NewClientCacheOpts creates a daemon from o, proxy-only fields
// ignored.
func NewClientCacheOpts(o Options) *ClientCache {
	return &ClientCache{storage: o.newStorage("client-cache", nil), tracer: o.Tracer, metrics: o.Metrics, readiness: readiness{events: o.Events}}
}

// Handler returns the daemon's HTTP interface:
//
//	GET  /object?key=HEX          serve a cached object (LAN fetch)
//	POST /store?key=HEX&cost=F    pass-down from the proxy, answered
//	                              with the store receipt: 1 (stored) or
//	                              0, then each evicted key's 32 hex
//	                              digits (appendReceipt); ?ifFree=1
//	                              refuses instead of evicting (the
//	                              diversion probe); every reply carries
//	                              the daemon's headroom (FreeHeader)
//	GET  /metrics                 counters and gauges (Prometheus text)
//	GET  /healthz                 liveness probe (health.go)
//	GET  /readyz                  readiness probe (health.go)
//	GET  /frames                  the upgrade to frames (frame.go), on
//	                              which the proxy asks /object and /store
func (c *ClientCache) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /object", c.handleObject)
	mux.HandleFunc("POST /store", c.handleStore)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.registerHealth(mux)
	mux.Handle("GET "+framePath, &c.frames)
	return mux
}

// Close ends the daemon's frame connections, once the frames they are
// serving are answered.  http.Server.Shutdown drains them as well;
// http.Server.Close does not, so a daemon stopped hard is stopped by
// both.
func (c *ClientCache) Close() {
	c.frames.Close()
}

func parseKey(r *http.Request) (pastry.ID, string, error) {
	hex := queryParam(r.URL.RawQuery, "key")
	id, ok := hexID(hex)
	if !ok {
		return pastry.ID{}, "", fmt.Errorf("httpcache: bad key %q", hex)
	}
	return id, hex, nil
}

// hexID parses a 32-hex-digit objectId, the one key form a daemon
// takes from the wire.
func hexID[T string | []byte](hex T) (pastry.ID, bool) {
	if len(hex) != 32 {
		return pastry.ID{}, false
	}
	var raw [16]byte
	for i := range 32 {
		var v byte
		switch c := hex[i]; {
		case '0' <= c && c <= '9':
			v = c - '0'
		case 'a' <= c && c <= 'f':
			v = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			v = c - 'A' + 10
		default:
			return pastry.ID{}, false
		}
		raw[i/2] = raw[i/2]<<4 | v
	}
	return pastry.IDFromBytes(raw[:]), true
}

// appendReceipt appends the §4.3 store receipt a client cache returns
// to its proxy: the flag 1 if it kept the body, else 0, then the key of
// each object it evicted to make room, 32 hex digits as parseKey took
// it, back to back.
func appendReceipt(b []byte, stored bool, evicted []store.Object) []byte {
	flag := byte('0')
	if stored {
		flag = '1'
	}
	b = append(b, flag)
	for _, ev := range evicted {
		b = append(b, ev.HexKey...)
	}
	return b
}

// decodeReceipt reads a /store reply's receipt as appendReceipt writes
// it: whether the daemon kept the body (StoredOK), and the folded keys
// of the well-formed ones among the objects it says it evicted for it.
// The sender fills in the rest.  A flag other than 0 or 1, or a body
// that is not the flag and whole 32-byte keys, is an error; a key that
// is not hex is skipped (FuzzStoreReceipt).
func decodeReceipt(body []byte) (p2p.Receipt, error) {
	if len(body) == 0 || body[0] != '0' && body[0] != '1' || (len(body)-1)%32 != 0 {
		return p2p.Receipt{}, fmt.Errorf("httpcache: a %d-byte store receipt is not a 0/1 flag and whole keys", len(body))
	}
	rec := p2p.Receipt{StoredOK: body[0] == '1'}
	for keys := body[1:]; len(keys) > 0; keys = keys[32:] {
		if id, ok := hexID(keys[:32]); ok {
			rec.Evicted = append(rec.Evicted, fold(id))
		}
	}
	return rec, nil
}

// parseCost reads a /store's greedy-dual cost from the query: 1 unless
// it is a finite positive number.  The value becomes H = L + Cost/Size,
// so an infinite cost (1e400 overflows to one) would pin the object for
// good, and a NaN would break the victim order and, once evicted, turn
// the store's inflation L into NaN.
func parseCost(s string) float64 {
	c, err := strconv.ParseFloat(s, 64)
	if err != nil || !(c > 0 && c <= math.MaxFloat64) {
		return 1
	}
	return c
}

func (c *ClientCache) handleObject(w http.ResponseWriter, r *http.Request) {
	id, _, err := parseKey(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	st := traceStart(c.tracer, r, "object")
	sp := st.StartSpan("client.object", "Tp2p")
	obj, ok := c.store.Get(fold(id))
	if !ok {
		sp.EndWasted()
		st.FinishWall("miss")
		c.stats.misses.Add(1)
		http.NotFound(w, r)
		return
	}
	sp.End()
	c.stats.hits.Add(1)
	serve(w, obj.Body, TierClientCache)
	st.FinishWall(TierClientCache)
}

// FreeHeader carries the daemon's headroom on every /store reply, 200
// and 507 alike: the largest body it takes without evicting
// (store.Headroom, its capacity less its resident bytes).  It is the
// §4.3 free-space knowledge the proxy places evictions by instead of
// trial stores; a sender that does not read it loses nothing.
const FreeHeader = "X-Cache-Free"

// reportHeadroom stamps FreeHeader (already in canonical MIME form) on
// the reply.
func (c *ClientCache) reportHeadroom(w http.ResponseWriter) {
	w.Header()[FreeHeader] = decimalValue(int(c.store.Headroom()))
}

// refuseStore answers the diversion probe (§4.3): this cache would have
// to evict, so the sender tries a neighbour.
func (c *ClientCache) refuseStore(w http.ResponseWriter) {
	c.reportHeadroom(w)
	http.Error(w, "no free space", http.StatusInsufficientStorage)
}

func (c *ClientCache) handleStore(w http.ResponseWriter, r *http.Request) {
	id, hex, err := parseKey(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	cost := parseCost(queryParam(r.URL.RawQuery, "cost"))
	folded := fold(id)
	ifFree := queryParam(r.URL.RawQuery, "ifFree") == "1"
	if ifFree && r.ContentLength > 0 && uint64(r.ContentLength) > c.store.Headroom() {
		// A declared length that does not fit is refused before a byte of
		// the body is read.
		c.refuseStore(w)
		return
	}
	body, err := readRetainedBody(w, r)
	if err != nil {
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if ifFree && uint64(len(body)) > c.store.Headroom() {
		// Unknown length (chunked), or the room went while the body was
		// in flight.
		c.refuseStore(w)
		return
	}
	// A zero-length body is never cached (store.ErrEmptyObject): its
	// receipt reads 0, and the sender's directory does not list it.
	evicted, stored, _ := c.store.Put(folded, store.Object{HexKey: hex, Body: body, Cost: cost})
	c.stats.stores.Add(1)
	c.reportHeadroom(w)
	w.Header()["Content-Type"] = contentTypeOctet
	w.Write(appendReceipt(make([]byte, 0, 1+32*len(evicted)), stored, evicted))
}

// snapshotStats reads the lock-free counters.
func (c *ClientCache) snapshotStats() ClientCacheStats {
	return ClientCacheStats{
		Objects: c.store.Len(),
		Hits:    int(c.stats.hits.Load()),
		Misses:  int(c.stats.misses.Load()),
		Stores:  int(c.stats.stores.Load()),
	}
}

// Objects reports the current cached-object count (tests).
func (c *ClientCache) Objects() int { return c.store.Len() }
