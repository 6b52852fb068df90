package httpcache

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"

	"webcache/internal/fleet"
	"webcache/internal/obs"
	"webcache/internal/pastry"
	"webcache/internal/store"
	"webcache/internal/store/disk"
	"webcache/internal/trace"
)

// fold compresses a 128-bit objectId into the 64-bit key the
// replacement policies use.  A birthday collision would need ~2^32
// distinct URLs in one cache — beyond any browser cache; the full hex
// key is kept alongside the body for exactness on the wire.  The
// formula lives in internal/fleet (fleet.Fold) so the consistent-hash
// ring, the simulator, and the load generator all derive identical
// keys.
func fold(id pastry.ID) trace.ObjectID {
	return fleet.Fold(id)
}

// Options configures a daemon's data plane beyond the capacity: the
// per-shard replacement policy (any cache.New registry name), the
// lock-stripe count of the concurrent store (internal/store), and the
// optional persistent disk tier (internal/store/disk).  The zero
// value means greedy-dual with auto-sized sharding and no disk tier.
type Options struct {
	// CapacityBytes is the memory cache byte budget.
	CapacityBytes uint64
	// Policy names the replacement policy ("" = greedy-dual).
	Policy string
	// Shards is the store's lock-stripe count (0 = auto).
	Shards int
	// DiskDir, when non-empty, enables the persistent disk tier under
	// this directory: writes ride its write-behind log, reads fall back
	// to it on memory misses, and a restart recovers its contents.
	DiskDir string
	// DiskCapacityBytes bounds the disk tier's live bytes
	// (0 = 16 x CapacityBytes — disk is the big tier).
	DiskCapacityBytes uint64
	// DiskMetrics, when non-nil, receives the disk tier's store.disk.*
	// instruments at Open time — before recovery runs, so the replay
	// counters observe boot progress.  (The memory tiers attach later
	// via SetMetrics, which cannot retro-date recovery.)
	DiskMetrics *obs.Registry
}

// newStore builds a daemon's sharded store from its options.
func (o Options) newStore(label string) (*store.Store, error) {
	return store.New(store.Config{
		CapacityBytes: o.CapacityBytes,
		Policy:        o.Policy,
		Shards:        o.Shards,
		Label:         label,
	})
}

// newTier builds a daemon's serving surface: the sharded memory store
// alone, or — with DiskDir set — a store.Tiered layering it over the
// persistent disk tier (opened here, so recovery happens before the
// daemon serves its first request).
func (o Options) newTier(label string) (mem *store.Store, dsk *disk.Store, tier store.Interface, err error) {
	mem, err = o.newStore(label)
	if err != nil {
		return nil, nil, nil, err
	}
	if o.DiskDir == "" {
		return mem, nil, mem, nil
	}
	diskCap := o.DiskCapacityBytes
	if diskCap == 0 {
		diskCap = 16 * o.CapacityBytes
	}
	dsk, err = disk.Open(disk.Config{
		Dir:           o.DiskDir,
		CapacityBytes: diskCap,
		Policy:        o.Policy,
		Metrics:       o.DiskMetrics,
		Label:         label + "-disk",
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return mem, dsk, store.NewTiered(mem, dsk, TierProxyDisk), nil
}

// StoreReceipt is the §4.3 store receipt a client cache returns to its
// proxy: what it kept and what it discarded to make room.
type StoreReceipt struct {
	Stored  bool     `json:"stored"`
	Evicted []string `json:"evicted,omitempty"` // hex objectIds
	// Reason explains a refusal ("empty-object" for zero-length
	// bodies, which are never cached — see store.ErrEmptyObject).
	Reason string `json:"reason,omitempty"`
}

// ClientCacheStats is the daemon's /stats payload.
type ClientCacheStats struct {
	Objects int `json:"objects"`
	Hits    int `json:"hits"`
	Misses  int `json:"misses"`
	Stores  int `json:"stores"`
	// DiskHits counts hits served from the persistent disk tier after a
	// memory miss (always 0 without Options.DiskDir).
	DiskHits int `json:"disk_hits"`
}

// clientCounters is the lock-free backing for ClientCacheStats.
type clientCounters struct {
	hits, misses, stores, diskHits atomic.Int64
}

// ClientCache is a browser-cache daemon: the cooperative partition of
// one client machine's cache, serving its local proxy over HTTP.
type ClientCache struct {
	store *store.Store // memory tier
	disk  *disk.Store  // persistent tier; nil without Options.DiskDir
	// tier is the serving surface: store alone, or the Tiered layering
	// when a disk tier is configured.
	tier  store.Interface
	stats clientCounters

	// tracer and metrics are the observability hooks (obs.go).
	tracer  *obs.Tracer
	metrics *obs.Registry

	// readiness is the /healthz + /readyz probe surface (health.go).
	readiness
}

// NewClientCache creates a daemon with the given cooperative-partition
// capacity in bytes and default options (greedy-dual, auto sharding).
func NewClientCache(capacityBytes uint64) *ClientCache {
	c, err := NewClientCacheOpts(Options{CapacityBytes: capacityBytes})
	if err != nil {
		panic(err) // unreachable: default options always construct
	}
	return c
}

// NewClientCacheOpts creates a daemon with explicit data-plane
// options; it fails only on an unknown policy name or a bad shard
// count.
func NewClientCacheOpts(o Options) (*ClientCache, error) {
	st, dsk, tier, err := o.newTier("client-cache")
	if err != nil {
		return nil, err
	}
	return &ClientCache{store: st, disk: dsk, tier: tier}, nil
}

// Handler returns the daemon's HTTP interface:
//
//	GET  /object?key=HEX          serve a cached object (LAN fetch)
//	POST /store?key=HEX&cost=F    pass-down from the proxy; ?ifFree=1
//	                              refuses instead of evicting (the
//	                              diversion probe); every reply carries
//	                              the daemon's headroom (FreeHeader)
//	GET  /stats                   counters
//	GET  /healthz                 liveness probe (health.go)
//	GET  /readyz                  readiness probe (health.go)
func (c *ClientCache) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /object", c.handleObject)
	mux.HandleFunc("POST /store", c.handleStore)
	mux.HandleFunc("GET /stats", c.handleStats)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.registerHealth(mux)
	return mux
}

func parseKey(r *http.Request) (pastry.ID, string, error) {
	hex := queryParam(r.URL.RawQuery, "key")
	if len(hex) != 32 {
		return pastry.ID{}, "", fmt.Errorf("httpcache: bad key %q", hex)
	}
	var raw [16]byte
	for i := 0; i < 32; i += 2 {
		v, err := strconv.ParseUint(hex[i:i+2], 16, 8)
		if err != nil {
			return pastry.ID{}, "", fmt.Errorf("httpcache: bad key %q", hex)
		}
		raw[i/2] = byte(v)
	}
	return pastry.IDFromBytes(raw[:]), hex, nil
}

func (c *ClientCache) handleObject(w http.ResponseWriter, r *http.Request) {
	id, _, err := parseKey(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	st := traceStart(c.tracer, r, "object")
	sp := st.StartSpan("client.object", "Tp2p")
	// A disk-tier fallback is booked as the daemon's own DiskHits; the wire
	// tier is TierClientCache whichever medium held the object.
	obj, ok := c.store.Get(fold(id))
	if !ok && c.disk != nil {
		if obj, ok = c.tier.Get(fold(id)); ok {
			c.stats.diskHits.Add(1)
		}
	}
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
// and 507 alike: the largest body it takes for any key without
// evicting (store.Headroom, the minimum over its shards).  It is the
// §4.3 free-space knowledge the proxy places evictions by instead of
// trial stores; a sender that does not read it loses nothing.
const FreeHeader = "X-Cache-Free"

// reportHeadroom stamps FreeHeader (already in canonical MIME form) on
// the reply.  The figure is the memory tier's, as FreeFor's is.
func (c *ClientCache) reportHeadroom(w http.ResponseWriter) {
	w.Header()[FreeHeader] = []string{strconv.FormatUint(c.store.Headroom(), 10)}
}

// refuseStore answers the diversion probe (§4.3): this cache would have
// to evict, so the sender tries a neighbour.  FreeFor asks the memory
// tier — the diversion protocol balances the hot tier, and the disk
// tier's write-behind absorbs whatever lands.
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
	cost, _ := strconv.ParseFloat(queryParam(r.URL.RawQuery, "cost"), 64)
	if cost <= 0 {
		cost = 1
	}
	folded := fold(id)
	ifFree := queryParam(r.URL.RawQuery, "ifFree") == "1"
	if ifFree && r.ContentLength > 0 && !c.store.FreeFor(folded, int(r.ContentLength)) {
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
	if ifFree && !c.store.FreeFor(folded, len(body)) {
		// Unknown length (chunked), or the room went while the body was
		// in flight.
		c.refuseStore(w)
		return
	}
	evicted, stored, err := c.tier.Put(folded, store.Object{HexKey: hex, Body: body, Cost: cost})
	c.stats.stores.Add(1)
	c.reportHeadroom(w)
	if stored && err == nil && len(evicted) == 0 {
		// The common steady-state receipt ("stored, nothing evicted")
		// is pre-serialized: no per-store encoder or receipt struct.
		// The bytes are exactly what json.Encoder emits for it, so
		// receivers cannot tell the paths apart.
		w.Header()["Content-Type"] = contentTypeJSON
		w.Write(receiptStoredClean)
		return
	}
	receipt := StoreReceipt{Stored: stored}
	if errors.Is(err, store.ErrEmptyObject) {
		// Surfaced explicitly rather than coerced: a zero-length body
		// is never cached, and the sender's directory must not list it.
		receipt.Reason = "empty-object"
	}
	for _, ev := range evicted {
		receipt.Evicted = append(receipt.Evicted, ev.HexKey)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(receipt)
}

// snapshotStats reads the lock-free counters into the /stats payload.
func (c *ClientCache) snapshotStats() ClientCacheStats {
	return ClientCacheStats{
		Objects:  c.store.Len(),
		Hits:     int(c.stats.hits.Load()),
		Misses:   int(c.stats.misses.Load()),
		Stores:   int(c.stats.stores.Load()),
		DiskHits: int(c.stats.diskHits.Load()),
	}
}

func (c *ClientCache) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(c.snapshotStats())
}

// Objects reports the current cached-object count (tests).
func (c *ClientCache) Objects() int { return c.store.Len() }

// Store exposes the daemon's sharded memory store (tests and
// telemetry).
func (c *ClientCache) Store() *store.Store { return c.store }

// Disk exposes the persistent tier (nil without Options.DiskDir).
func (c *ClientCache) Disk() *disk.Store { return c.disk }

// RecoveredHexKeys lists the hex objectIds the disk tier recovered at
// startup, in journal order — the payload the daemon re-registers
// with its proxy so the lookup directory learns what survived the
// restart.  Nil without a disk tier.
func (c *ClientCache) RecoveredHexKeys() []string {
	if c.disk == nil {
		return nil
	}
	return c.disk.RecoveredHexKeys()
}

// Sync blocks until every acknowledged store is durable on disk
// (trivially true without a disk tier).
func (c *ClientCache) Sync() bool {
	if c.disk == nil {
		return true
	}
	return c.disk.Sync()
}

// Close drains the disk tier's write-behind queue and closes its
// files; a daemon without a disk tier needs no teardown.  Call after
// the HTTP listener has drained, so every acknowledged /store is
// journaled before exit.
func (c *ClientCache) Close() error {
	if c.disk == nil {
		return nil
	}
	return c.disk.Close()
}
