package p2p

import (
	"slices"
	"sort"

	"webcache/internal/cache"
	"webcache/internal/pastry"
	"webcache/internal/trace"
)

// Hot-object replication (extension).  The paper's DHT placement puts
// each object on exactly one client cache, so a popular object turns
// its destination cache into a hotspot — a desktop asked to serve
// hundreds of LAN fetches.  PAST (the paper's storage-management
// reference) solves this by replicating popular objects across the
// leaf set; this file implements that: once a cache has served the
// same object ReplicateHotAfter times since the last replication, it
// copies the object to a leaf-set member with free space, and
// subsequent lookups round-robin across owner and replicas.
//
// The mechanism is off by default (the paper has no replication);
// BenchmarkHotReplication and the hotspot tests quantify what it buys:
// the maximum per-node serve load drops roughly by the replica count
// while total hit ratio is unchanged.

// replicaState augments a client node with replication bookkeeping.
type replicaState struct {
	// holders[obj] lists the nodes holding replicas of obj (this node
	// is the DHT owner).
	holders map[trace.ObjectID][]pastry.ID
	// serves[obj] counts lookups served for obj since the last
	// replication decision.
	serves map[trace.ObjectID]int
}

func (n *clientNode) replState() *replicaState {
	if n.repl == nil {
		n.repl = &replicaState{
			holders: make(map[trace.ObjectID][]pastry.ID),
			serves:  make(map[trace.ObjectID]int),
		}
	}
	return n.repl
}

// maybeServeFromReplica round-robins a hot object's serves across the
// owner and its live replicas, and creates new replicas when the
// configured threshold is crossed.  It returns extra hops/messages,
// which node actually served, and any objects the replica displaced
// (the proxy must scrub those from its lookup directory).
func (c *Cluster) maybeServeFromReplica(owner *clientNode, obj trace.ObjectID) (served *clientNode, extraHops, extraMsgs int, displaced []trace.ObjectID) {
	served = owner
	if c.cfg.ReplicateHotAfter <= 0 {
		return served, 0, 0, nil
	}
	rs := owner.replState()
	rs.serves[obj]++
	sc := rs.serves[obj]

	// Replicate when the threshold is crossed (again).
	if sc%c.cfg.ReplicateHotAfter == 0 {
		displaced = c.replicateTo(owner, obj)
	}

	// Round-robin across owner + live replicas.
	holders := rs.holders[obj]
	if len(holders) == 0 {
		return served, 0, 0, displaced
	}
	pick := sc % (len(holders) + 1)
	if pick == 0 {
		return served, 0, 0, displaced
	}
	id := holders[pick-1]
	replica := c.nodes.Get(id)
	if replica == nil || !replica.cache.Contains(obj) {
		// Stale (crashed holder or evicted replica): drop lazily.
		rs.holders[obj] = removeID(holders, id)
		return served, 0, 0, displaced
	}
	replica.cache.Access(obj)
	return replica, 1, 1, displaced // owner -> replica redirect
}

// replicateTo copies obj to a leaf-set member that does not already
// hold it.  A member with free space is preferred; otherwise the first
// live member's greedy-dual decides what the replica displaces (the
// displaced objects are returned so the proxy can scrub its
// directory — the owner still holds obj itself, so losing a replica
// later is harmless).
func (c *Cluster) replicateTo(owner *clientNode, obj trace.ObjectID) []trace.ObjectID {
	e, ok := owner.cache.Peek(obj)
	if !ok {
		return nil
	}
	rs := owner.replState()
	candidates := c.leafCandidates(owner)
	var fallback *clientNode
	for _, leafID := range candidates {
		b := c.nodes.Get(leafID)
		if b == nil || leafID == owner.id || slices.Contains(rs.holders[obj], leafID) || b.cache.Contains(obj) {
			continue
		}
		if uint64(e.Size) > b.cache.Capacity() {
			continue
		}
		if b.hasFreeSpace(e.Size) {
			c.commitReplica(rs, b, obj, e.Size, e.Cost)
			return nil
		}
		if fallback == nil {
			fallback = b
		}
	}
	if fallback == nil {
		return nil
	}
	var displaced []trace.ObjectID
	ent, _ := owner.cache.Peek(obj)
	for _, ev := range c.add(fallback, ent) {
		c.dropEvicted(fallback, ev.Obj)
		displaced = append(displaced, ev.Obj)
		c.stats.Evictions++
	}
	rs.holders[obj] = append(rs.holders[obj], fallback.id)
	c.stats.Replications++
	c.stats.Messages += 2
	return displaced
}

// commitReplica records a replica stored without eviction.
func (c *Cluster) commitReplica(rs *replicaState, b *clientNode, obj trace.ObjectID, size uint32, cost float64) {
	c.add(b, cacheEntry(obj, size, cost))
	rs.holders[obj] = append(rs.holders[obj], b.id)
	c.stats.Replications++
	c.stats.Messages += 2 // owner -> holder copy + ack
}

func removeID(ids []pastry.ID, id pastry.ID) []pastry.ID {
	out := ids[:0]
	for _, v := range ids {
		if v != id {
			out = append(out, v)
		}
	}
	return out
}

// LoadStats summarizes the per-node lookup-serve distribution — the
// hotspot measurement replication exists to improve.
type LoadStats struct {
	TotalServes int
	MaxServes   int
	MeanServes  float64
	// P99Serves is the 99th-percentile per-node serve count.
	P99Serves int
}

// LoadBalance computes the serve-load distribution over live nodes.
func (c *Cluster) LoadBalance() LoadStats {
	var loads []int
	total := 0
	c.nodes.Range(func(n *clientNode) bool {
		loads = append(loads, n.served)
		total += n.served
		return true
	})
	st := LoadStats{TotalServes: total}
	if len(loads) == 0 {
		return st
	}
	sort.Ints(loads)
	st.MaxServes = loads[len(loads)-1]
	st.MeanServes = float64(total) / float64(len(loads))
	st.P99Serves = loads[(len(loads)-1)*99/100]
	return st
}

// cacheEntry builds a cache entry (helper for replication).
func cacheEntry(obj trace.ObjectID, size uint32, cost float64) cache.Entry {
	return cache.Entry{Obj: obj, Size: size, Cost: cost}
}
