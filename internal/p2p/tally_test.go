package p2p

import (
	"testing"

	"webcache/internal/cache"
	"webcache/internal/trace"
)

// FuzzClusterFreeTally runs scripts of pass-down stores, Squirrel's
// lookup-or-store, lookups, crashes and joins on small clusters, with
// object sizes 1 to 8.  The first three bytes set up the cluster:
// clients, per-client capacity and the seed.  Each later byte is one
// operation: the low three bits pick it, the rest the object or client.
// After every step Cluster.free must equal the free space summed over
// the live caches, and a store that ended in replacement at a full
// owner (the diversion scan skipped, or run and come up empty) must not
// have had a leaf of the owner with room for the object.
func FuzzClusterFreeTally(f *testing.F) {
	f.Add([]byte{4, 6, 2, 0x10, 0x23, 0x35, 0x47, 0x58, 0x61, 0x72, 0x83})
	fill := []byte{8, 3, 1}
	for i := byte(0); i < 96; i++ {
		fill = append(fill, i*8+[]byte{0, 1, 3, 2, 4, 5}[i%6]) // stores, lookups, hits
	}
	f.Add(fill)
	churn := []byte{6, 10, 3}
	for i := byte(0); i < 80; i++ {
		churn = append(churn, i*8+[]byte{3, 3, 4, 1, 6, 7, 4, 0}[i%8]) // a crash and a join every eight
	}
	f.Add(churn)
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 3 {
			return
		}
		c, err := NewCluster(Config{
			NumClients:        2 + int(script[0]%10),
			PerClientCapacity: 2 + uint64(script[1]%14),
			Seed:              int64(script[2]),
		})
		if err != nil {
			t.Fatal(err)
		}
		checkTally(t, c, "NewCluster")
		for step, b := range script[3:] {
			obj := trace.ObjectID(b >> 3)
			e := cache.Entry{Obj: obj, Size: 1 + uint32(obj*5%8), Cost: 1}
			from := int(b>>3) % len(c.clientIDs)
			var op string
			switch b & 7 {
			case 0, 1, 2:
				op = "StoreEvicted"
				held, replaced := holders(c, e.Obj), c.stats.Replacements
				if _, err := c.StoreEvicted(e, from, b&7 == 0); err != nil {
					t.Fatalf("step %d: %s: %v", step, op, err)
				}
				checkNoMissedDiversion(t, c, e, held, replaced, step)
			case 3, 4:
				op = "LookupOrStore"
				held, replaced := holders(c, e.Obj), c.stats.Replacements
				if _, _, err := c.LookupOrStore(e, from); err != nil {
					t.Fatalf("step %d: %s: %v", step, op, err)
				}
				checkNoMissedDiversion(t, c, e, held, replaced, step)
			case 5:
				op = "Lookup"
				if _, err := c.Lookup(obj, from); err != nil {
					t.Fatalf("step %d: %s: %v", step, op, err)
				}
			case 6:
				op = "FailClient"
				if c.LiveClients() < 2 {
					continue
				}
				if _, err := c.FailClient(c.live[from%len(c.live)]); err != nil {
					t.Fatalf("step %d: %s: %v", step, op, err)
				}
			case 7:
				op = "JoinClient"
				if _, err := c.JoinClient(); err != nil {
					t.Fatalf("step %d: %s: %v", step, op, err)
				}
			}
			checkTally(t, c, op)
		}
	})
}

// checkTally requires Cluster.free to be the live caches' free space.
func checkTally(t *testing.T, c *Cluster, after string) {
	t.Helper()
	var sum uint64
	c.nodes.Range(func(n *clientNode) bool {
		sum += n.cache.Capacity() - n.cache.Used()
		return true
	})
	if c.free != sum {
		t.Fatalf("after %s: tally says %d free, live caches have %d", after, c.free, sum)
	}
}

// holders lists the live clients holding obj.
func holders(c *Cluster, obj trace.ObjectID) map[*clientNode]bool {
	held := map[*clientNode]bool{}
	c.nodes.Range(func(n *clientNode) bool {
		if n.cache.Contains(obj) {
			held[n] = true
		}
		return true
	})
	return held
}

// checkNoMissedDiversion fails a store of e that replaced at its full
// destination (Replacements rose past before) although a leaf of the
// destination had room for e.  The destination is the client that
// holds e now and did not before (held); a replacement changes only its
// cache, so the leaves are seen as the store saw them.
func checkNoMissedDiversion(t *testing.T, c *Cluster, e cache.Entry, held map[*clientNode]bool, before, step int) {
	t.Helper()
	if c.stats.Replacements == before {
		return
	}
	c.nodes.Range(func(a *clientNode) bool {
		if held[a] || !a.cache.Contains(e.Obj) {
			return true
		}
		node, _ := c.overlay.Node(a.id)
		for _, id := range node.LeafSet().Members() {
			if b := c.nodes.Get(id); b != nil && b.hasFreeSpace(e.Size) && !b.cache.Contains(e.Obj) {
				t.Fatalf("step %d: store of size %d replaced at %v with %d free in the tally, but leaf %v had room",
					step, e.Size, a.id, c.free, id)
			}
		}
		return false
	})
}
