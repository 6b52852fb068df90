package httpcache

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"

	"webcache/internal/invariant"
	"webcache/internal/obs"
	"webcache/internal/obs/slo"
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

// newStorage builds a daemon's store.
func (o Options) newStorage(label string) storage {
	mem, _ := store.New(store.Config{CapacityBytes: o.CapacityBytes, Label: label, Metrics: o.Metrics}) // never fails
	return storage{mem}
}

// Store exposes the daemon's memory store (tests and telemetry).
func (s *storage) Store() *store.Store { return s.store }

// StoreReceipt is the §4.3 store receipt a client cache returns to its
// proxy: what it kept and what it discarded to make room.
type StoreReceipt struct {
	Stored  bool     `json:"stored"`
	Evicted []string `json:"evicted,omitempty"` // hex objectIds
	// Reason explains a refusal ("empty-object" for zero-length
	// bodies, which are never cached — see store.ErrEmptyObject).
	Reason string `json:"reason,omitempty"`
}

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
	return &ClientCache{storage: o.newStorage("client-cache"), tracer: o.Tracer, metrics: o.Metrics, readiness: readiness{events: o.Events}}
}

// Handler returns the daemon's HTTP interface:
//
//	GET  /object?key=HEX          serve a cached object (LAN fetch)
//	POST /store?key=HEX&cost=F    pass-down from the proxy; ?ifFree=1
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

// foldHex folds the well-formed keys of a list another daemon sent (a
// store receipt's evictions) and skips the rest.
func foldHex(hexes []string) []trace.ObjectID {
	var out []trace.ObjectID
	for _, hex := range hexes {
		if id, ok := hexID(hex); ok {
			out = append(out, fold(id))
		}
	}
	return out
}

// appendReceipt appends a store receipt exactly as json.Encoder writes
// StoreReceipt{Stored: stored, Evicted: the evicted objects' keys,
// Reason: reason}, the trailing newline included.  Neither a key (32 hex
// digits, as parseKey took it) nor a reason (a constant) has a byte
// encoding/json would escape, so both are written as they are.
func appendReceipt(b []byte, stored bool, evicted []store.Object, reason string) []byte {
	b = strconv.AppendBool(append(b, `{"stored":`...), stored)
	if len(evicted) > 0 {
		b = append(b, `,"evicted":[`...)
		for i, ev := range evicted {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(append(append(b, '"'), ev.HexKey...), '"')
		}
		b = append(b, ']')
	}
	if reason != "" {
		b = append(append(append(b, `,"reason":"`...), reason...), '"')
	}
	return append(b, "}\n"...)
}

// receipt is a store receipt as a pass-down books it: whether the daemon
// kept the body, and the folded keys of the well-formed ones among the
// objects it says it evicted for it.
type receipt struct {
	stored  bool
	evicted []trace.ObjectID
}

// decodeReceipt reads a /store reply's receipt (StoreReceipt's JSON).
// One laid out as appendReceipt writes it, or with an explicit null list
// or reason, is scanned where it lies; anything else goes to
// encoding/json, and reads the same either way (FuzzStoreReceipt).
func decodeReceipt(body []byte) (*receipt, error) {
	if rec, ok := scanReceipt(body); ok {
		return rec, nil
	}
	var r StoreReceipt
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	return &receipt{stored: r.Stored, evicted: foldHex(r.Evicted)}, nil
}

// scanReceipt reads b as `{"stored":B[,"evicted":null|[S,...]][,"reason":S]}`
// and an optional newline, where each string S is free of escapes and
// control bytes; ok is false for anything else.
func scanReceipt(b []byte) (rec *receipt, ok bool) {
	lit := func(l string) bool {
		if len(b) < len(l) || string(b[:len(l)]) != l {
			return false
		}
		b = b[len(l):]
		return true
	}
	str := func() ([]byte, bool) {
		if !lit(`"`) {
			return nil, false
		}
		for i, c := range b {
			switch {
			case c == '"':
				s := b[:i]
				b = b[i+1:]
				return s, true
			case c < 0x20 || c == '\\':
				return nil, false
			}
		}
		return nil, false
	}
	rec = new(receipt)
	if !lit(`{"stored":`) {
		return nil, false
	}
	if rec.stored = lit("true"); !rec.stored && !lit("false") {
		return nil, false
	}
	if lit(`,"evicted":`) && !lit("null") {
		if !lit("[") {
			return nil, false
		}
		for n := 0; !lit("]"); n++ {
			if n > 0 && !lit(",") {
				return nil, false
			}
			hex, ok := str()
			if !ok {
				return nil, false
			}
			if id, ok := hexID(hex); ok {
				rec.evicted = append(rec.evicted, fold(id))
			}
		}
	}
	if lit(`,"reason":`) {
		if _, ok := str(); !ok {
			return nil, false
		}
	}
	if !lit("}") {
		return nil, false
	}
	lit("\n")
	return rec, len(b) == 0
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
	evicted, stored, err := c.store.Put(folded, store.Object{HexKey: hex, Body: body, Cost: cost})
	c.stats.stores.Add(1)
	c.reportHeadroom(w)
	reason := ""
	if errors.Is(err, store.ErrEmptyObject) {
		// Surfaced explicitly rather than coerced: a zero-length body
		// is never cached, and the sender's directory must not list it.
		reason = "empty-object"
	}
	w.Header()["Content-Type"] = contentTypeJSON
	w.Write(appendReceipt(make([]byte, 0, 64+36*len(evicted)), stored, evicted, reason))
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
