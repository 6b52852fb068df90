package sim

import (
	"webcache/internal/cache"
	"webcache/internal/invariant"
	"webcache/internal/trace"
)

// tieredCache is the unified proxy+P2P cache the EC schemes use: an
// exclusive two-level hierarchy where the proxy tier serves at Tl and
// the client tier at Tp2p.  Insertions enter the proxy tier; proxy
// evictions demote into the client tier; client-tier hits promote back
// up (and the displaced proxy-tier victim demotes).  "Proxies and
// their own P2P client caches share cache contents and coordinate
// replacement so that they appear as one unified cache" (§2).
//
// Without a client tier (lower nil, the non-EC schemes) it is the
// proxy's LFU alone.
type tieredCache struct {
	upper cache.Policy
	lower cache.Policy
	// missLFU is the proxy tier's LFU kept from construction (upper may
	// be its invariant wrapper), so recordMiss on the per-request miss
	// path costs no type assertions.
	missLFU *cache.LFU
	// upperEvictions counts objects the proxy tier evicted (demoted
	// or discarded) — the Result.ProxyEvictions telemetry.
	upperEvictions int
}

// newTieredCache builds the unified cache for one proxy: perfect LFU
// in both tiers over one shared history, whose ids below universe (the
// trace's NumObjects) index arrays rather than hash.  A p2pCap of 0
// builds no client tier.  chk wires invariant checking around both
// tiers (nil disables it); label distinguishes proxies in violation
// reports.
func newTieredCache(proxyCap, p2pCap uint64, universe int, chk *invariant.Checker, label string) *tieredCache {
	t := &tieredCache{}
	history := cache.NewHistory(universe)
	mk := func(capacity uint64, tier string) (*cache.LFU, cache.Policy) {
		lfu := cache.NewPerfectLFUShared(capacity, history)
		return lfu, invariant.WrapPolicy(lfu, chk, label+tier)
	}
	t.missLFU, t.upper = mk(proxyCap, ".proxy")
	if p2pCap > 0 {
		_, t.lower = mk(p2pCap, ".client")
	}
	return t
}

// tier identifies where a unified-cache hit was served.
type tier int

const (
	tierMiss tier = iota
	tierProxy
	tierClient
)

// access looks obj up in the unified cache, promoting client-tier hits.
func (t *tieredCache) access(obj trace.ObjectID) tier {
	if t.upper.Access(obj) {
		return tierProxy
	}
	if t.lower == nil {
		return tierMiss
	}
	e, ok := t.lower.Peek(obj)
	if !ok {
		return tierMiss
	}
	// Promote: the object moves up; whatever the proxy tier evicts to
	// make room demotes down.  Count the access in the shared history
	// via Access before removal so LFU ranks stay truthful.
	t.lower.Access(obj)
	t.lower.Remove(obj)
	t.insert(e)
	return tierClient
}

// recordMiss updates perfect-LFU history for an uncached object.
func (t *tieredCache) recordMiss(obj trace.ObjectID) {
	t.missLFU.RecordMiss(obj)
}

// insert adds a fetched object to the proxy tier, cascading evictions
// into the client tier.  Objects falling out of the client tier leave
// the unified cache entirely.
func (t *tieredCache) insert(e cache.Entry) {
	if t.upper.Contains(e.Obj) {
		return
	}
	for _, ev := range t.upper.Add(e) {
		t.upperEvictions++
		if t.lower == nil {
			continue
		}
		if uint64(ev.Size) > t.lower.Capacity() || t.lower.Contains(ev.Obj) {
			continue
		}
		// Demotion: client-tier overflow is discarded.
		t.lower.Add(ev)
	}
}

// contains reports presence in either tier (for inter-proxy sharing).
func (t *tieredCache) contains(obj trace.ObjectID) bool {
	if t.upper.Contains(obj) {
		return true
	}
	return t.lower != nil && t.lower.Contains(obj)
}

// touchRemote refreshes replacement state when a cooperating proxy
// fetches obj from this unified cache.
func (t *tieredCache) touchRemote(obj trace.ObjectID) {
	if t.upper.Access(obj) {
		return
	}
	if t.lower != nil {
		t.lower.Access(obj)
	}
}

// objects snapshots the unified contents (for digest rebuilds).
func (t *tieredCache) objects() []trace.ObjectID {
	out := t.upper.Objects()
	if t.lower != nil {
		out = append(out, t.lower.Objects()...)
	}
	return out
}

// len reports the unified population (tests).
func (t *tieredCache) len() int {
	n := t.upper.Len()
	if t.lower != nil {
		n += t.lower.Len()
	}
	return n
}
