package loadgen

import (
	"context"
	"testing"
	"time"
)

// TestFlashDisconnect pins the churn primitive itself: the victim set
// is deterministic under a seed, repeat calls skip already-dead
// daemons instead of double-closing them, and Close survives a
// topology where half the servers are already gone.
func TestFlashDisconnect(t *testing.T) {
	start := func() *Topology {
		topo, err := StartLoopback(strictly(t, TopologyConfig{
			Proxies:            2,
			CachesPerProxy:     3,
			ProxyCapacityBytes: []uint64{1 << 20, 1 << 20},
			CacheCapacityBytes: []uint64{1 << 20, 1 << 20, 1 << 20, 1 << 20, 1 << 20, 1 << 20},
			ObjectBytes:        64,
		}))
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	topo := start()
	closeTopo := func(tp *Topology) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := tp.Close(ctx); err != nil {
			t.Fatalf("close after churn: %v", err)
		}
	}
	defer closeTopo(topo)

	downed := topo.FlashDisconnect(0.5, 42)
	if len(downed) != 3 {
		t.Fatalf("downed %d daemons, want 3 (half of 2x3)", len(downed))
	}
	// Same seed on the same address set must pick the same victims; the
	// already-closed ones are skipped, not re-closed, so the second call
	// returns the identical list without side effects.
	again := topo.FlashDisconnect(0.5, 42)
	if len(again) != len(downed) {
		t.Fatalf("repeat churn downed %d, want %d", len(again), len(downed))
	}
	for i := range downed {
		if again[i] != downed[i] {
			t.Fatalf("victim set not deterministic: %v vs %v", downed, again)
		}
	}

	// Everything at once: fraction 1 kills the remaining half too, and
	// the deferred Close still has to return cleanly (it must skip every
	// server FlashDisconnect already closed).
	all := topo.FlashDisconnect(1.0, 7)
	if len(all) != 6 {
		t.Fatalf("full churn downed %d daemons, want all 6", len(all))
	}

	// Zero fraction is a no-op.
	topo2 := start()
	defer closeTopo(topo2)
	if v := topo2.FlashDisconnect(0, 1); v != nil {
		t.Fatalf("zero-fraction churn downed %v", v)
	}
}
