// Package p2p implements the paper's P2P client cache (§4): the
// cooperative browser-cache partitions of all client machines in a
// client cluster, organized into one logical cache over a Pastry
// overlay.
//
// It provides the four mechanisms the paper designs:
//
//   - DHT store ("pass-down"): objects evicted by the proxy are routed
//     by SHA-1 objectId to the client cache whose cacheId is
//     numerically closest (§4.1), where the local greedy-dual
//     replacement runs (§3);
//   - object diversion: a full destination cache first tries to divert
//     the object to a leaf-set neighbour with free space, keeping a
//     pointer (§4.3, after PAST);
//   - piggybacking: evicted objects ride the HTTP response to the
//     requesting client, which forwards them by Pastry routing,
//     avoiding a dedicated proxy->client connection (§4.4);
//   - push: because client caches sit behind firewalls, a remote fetch
//     is satisfied by asking the destination cache to push the object
//     up to its local proxy (§4.5).
//
// Store receipts flowing back to the proxy keep the proxy's lookup
// directory (package directory) synchronized.
package p2p

import (
	"errors"
	"fmt"
	"math/rand"

	"webcache/internal/cache"
	"webcache/internal/pastry"
	"webcache/internal/trace"
)

// Config sizes a client cluster.
type Config struct {
	// NumClients is the client cluster size (paper default 100).
	NumClients int
	// PerClientCapacity is each client's cooperative-cache capacity in
	// cache units (paper: 0.1% of the infinite cache size).
	PerClientCapacity uint64
	// DisableDiversion turns off leaf-set object diversion (§4.3), so
	// a full destination cache always runs local replacement — the
	// ablation that shows what diversion buys.
	DisableDiversion bool
	// Seed drives overlay construction.
	Seed int64
	// WrapCache, when non-nil, wraps every client cache as it is
	// created (initial join and churn joins alike).  The invariant
	// subsystem uses it to put shadow-checked policies under the whole
	// cluster; label identifies the client in violation reports.
	WrapCache func(p cache.Policy, label string) cache.Policy
}

// Stats aggregates the cluster's mechanism-level telemetry.
type Stats struct {
	Stores        int // pass-down store operations
	Diversions    int // stores satisfied by leaf-set diversion
	Replacements  int // stores that forced a client-cache eviction
	Evictions     int // objects discarded from client caches
	Lookups       int // P2P lookups from the proxy
	LookupHits    int
	PointerHits   int // hits served through a diversion pointer
	Pushes        int // push operations for cooperating proxies
	Messages      int // total overlay messages (1 per hop + control)
	PiggybackSave int // proxy->client messages avoided by piggybacking
	RouteHops     int // cumulative Pastry routing hops
	Handoffs      int // objects re-homed when nodes join
	LostOnFailure int // objects lost to client-cache failures
}

// clientNode is one client's cooperative cache partition.
type clientNode struct {
	id pastry.ID
	// cache is greedy-dual per the paper (§3), possibly wrapped by
	// Config.WrapCache for invariant checking.
	cache cache.Policy
	// pointerTo maps objects this node owns (by DHT) but diverted to a
	// leaf-set neighbour: object -> holder.
	pointerTo map[trace.ObjectID]pastry.ID
	// heldFor maps objects this node physically stores on behalf of
	// another owner: object -> owner.
	heldFor map[trace.ObjectID]pastry.ID
	// served counts lookups this node answered (hotspot metric).
	served int
}

func newClientNode(id pastry.ID, capacity uint64, wrap func(cache.Policy, string) cache.Policy) *clientNode {
	var p cache.Policy = cache.NewGreedyDual(capacity)
	if wrap != nil {
		p = wrap(p, fmt.Sprintf("client-%v", id))
	}
	return &clientNode{
		id:        id,
		cache:     p,
		pointerTo: make(map[trace.ObjectID]pastry.ID),
		heldFor:   make(map[trace.ObjectID]pastry.ID),
	}
}

// hasFreeSpace reports whether e fits without eviction.
func (n *clientNode) hasFreeSpace(size uint32) bool {
	return n.cache.Used()+uint64(size) <= n.cache.Capacity()
}

// Cluster is the P2P client cache of one proxy's client cluster.
type Cluster struct {
	cfg     Config
	overlay *pastry.Overlay
	nodes   pastry.IDTable[clientNode]
	// clientIDs[i] is client i's overlay id; dead[i] marks failed
	// clients, and live lists the other indices in ascending order.
	clientIDs []pastry.ID
	dead      []bool
	live      []int
	// free is the sum over live client caches of capacity minus used.
	// A leaf can take a diverted object of size s only if it has s free,
	// and then free >= s, so a store with free < s skips the leaf scan.
	// add and remove are the only callers of a client cache's Add and
	// Remove, and keep it exact.
	free  uint64
	stats Stats
	// rng drives the fallback start-node choice in startNode so routing
	// load spreads across live clients instead of piling onto the
	// lowest-index one.
	rng *rand.Rand
	// keys memoises ObjectKey: a replay hashes the same few thousand
	// object ids hundreds of thousands of times.
	keys []keySlot
	// leafBuf and evictedBuf back leafCandidates' result and
	// Receipt.Evicted, so a pass-down does not allocate.
	leafBuf    []pastry.ID
	evictedBuf []trace.ObjectID
}

// keySlot is one entry of the direct-mapped ObjectKey table.
type keySlot struct {
	obj trace.ObjectID
	key pastry.ID
	ok  bool
}

// keySlots bounds the ObjectKey table (a power of two; 512 KiB per
// cluster).  Object ids that collide in it evict each other and are
// hashed again, so a larger object universe costs time, not memory.
const keySlots = 1 << 14

// ErrNoLiveClients reports an operation on a fully failed cluster.
var ErrNoLiveClients = errors.New("p2p: no live client caches")

// NewCluster builds the overlay and joins every client.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.NumClients <= 0 {
		return nil, fmt.Errorf("p2p: cluster needs clients (got %d)", cfg.NumClients)
	}
	if cfg.PerClientCapacity == 0 {
		return nil, errors.New("p2p: per-client capacity must be positive")
	}
	ov, err := pastry.New(pastry.Config{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	ids, err := ov.JoinN(cfg.NumClients, fmt.Sprintf("client/%d", cfg.Seed))
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:       cfg,
		overlay:   ov,
		clientIDs: ids,
		dead:      make([]bool, cfg.NumClients),
		live:      make([]int, cfg.NumClients),
		rng:       rand.New(rand.NewSource(cfg.Seed ^ 0x70737472)), // "pstr"
		keys:      make([]keySlot, keySlots),
	}
	for i, id := range ids {
		n := newClientNode(id, cfg.PerClientCapacity, cfg.WrapCache)
		c.nodes.Put(id, n)
		c.free += n.cache.Capacity()
		c.live[i] = i
	}
	return c, nil
}

// add stores e in n's cache, returning what it evicted, and keeps
// c.free in step.
func (c *Cluster) add(n *clientNode, e cache.Entry) []cache.Entry {
	before := n.cache.Used()
	evicted := n.cache.Add(e)
	c.free += before - n.cache.Used()
	return evicted
}

// remove drops obj from n's cache and keeps c.free in step.
func (c *Cluster) remove(n *clientNode, obj trace.ObjectID) (cache.Entry, bool) {
	before := n.cache.Used()
	e, ok := n.cache.Remove(obj)
	c.free += before - n.cache.Used()
	return e, ok
}

// ObjectKey maps a simulator object id onto the Pastry id space (the
// paper's SHA-1 objectId).
func ObjectKey(obj trace.ObjectID) pastry.ID { return pastry.HashUint64(uint64(obj)) }

// objectKey is ObjectKey through the cluster's table.
func (c *Cluster) objectKey(obj trace.ObjectID) pastry.ID {
	s := &c.keys[uint64(obj)%keySlots]
	if !s.ok || s.obj != obj {
		*s = keySlot{obj: obj, key: ObjectKey(obj), ok: true}
	}
	return s.key
}

// NumClients returns the configured cluster size.
func (c *Cluster) NumClients() int { return c.cfg.NumClients }

// LiveClients returns the number of live client caches.
func (c *Cluster) LiveClients() int { return len(c.live) }

// Capacity returns the cluster's aggregate cooperative capacity.
func (c *Cluster) Capacity() uint64 {
	return uint64(len(c.live)) * c.cfg.PerClientCapacity
}

// Stats returns a snapshot of the mechanism telemetry.
func (c *Cluster) Stats() Stats { return c.stats }

// Overlay exposes the underlying Pastry overlay (read-only use).
func (c *Cluster) Overlay() *pastry.Overlay { return c.overlay }

// startNode picks the overlay node to route from: the requesting
// client if it is alive, otherwise a seeded-random live client (the
// proxy can ask any of its clients to route on its behalf; always
// picking the lowest-index one would make it a routing hotspot).
func (c *Cluster) startNode(fromClient int) (pastry.ID, error) {
	if fromClient >= 0 && fromClient < len(c.clientIDs) && !c.dead[fromClient] {
		return c.clientIDs[fromClient], nil
	}
	if len(c.live) == 0 {
		return pastry.ID{}, ErrNoLiveClients
	}
	return c.clientIDs[c.live[c.rng.Intn(len(c.live))]], nil
}
