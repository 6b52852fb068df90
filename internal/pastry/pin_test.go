package pastry

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// TestOverlayStatsPinned pins Overlay.Stats() — including the exact
// bits of MeanHops and MeanStretch — and every route's (dest, hops)
// after a scripted join/route/fail/leave sequence on a proximity-aware
// overlay.  MeanStretch is a ratio of two float sums, so it moves if
// the per-hop distances are ever added in a different order; the
// simulator's pins do not cover it (p2p clusters are not proximity-
// aware).  A change that only makes routing cheaper leaves it as is.
func TestOverlayStatsPinned(t *testing.T) {
	const (
		pinnedRoutes  = "d08855b469a5204acfe4fb225f66567385b57b8ae700e72c4b3b95cee06cbcfe"
		pinnedHops    = uint64(0x3ffc189374bc6a7f) // 1.756
		pinnedStretch = uint64(0x3ff5f1ad017596d3) // 1.3715...
	)
	o, err := New(Config{Seed: 7, ProximityAware: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.JoinN(120, "pin"); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	key := 0
	routeSome := func(n int) {
		for i := 0; i < n; i++ {
			dest, hops, err := o.Route(HashUint64(uint64(key)))
			key++
			if err != nil {
				t.Fatal(err)
			}
			var b [24]byte
			binary.BigEndian.PutUint64(b[0:], dest.hi)
			binary.BigEndian.PutUint64(b[8:], dest.lo)
			binary.BigEndian.PutUint64(b[16:], uint64(hops))
			h.Write(b[:])
		}
	}
	routeSome(500)
	// Crashes are discovered lazily by the routes that follow.
	for i := 0; i < 15; i++ {
		o.Fail(o.IDs()[(i*7)%o.Len()])
	}
	routeSome(500)
	for i := 0; i < 10; i++ {
		o.Leave(o.IDs()[(i*11)%o.Len()])
	}
	for i := 0; i < 20; i++ {
		if err := o.Join(HashString(fmt.Sprintf("pin/late/%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	routeSome(500)

	st := o.Stats()
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedRoutes {
		t.Errorf("route (dest, hops) digest moved:\n  got  %s\n  want %s", got, pinnedRoutes)
	}
	if st.Routes != 1500 || st.NumNodes != 115 || st.MaxHops != 3 || st.Repairs != 85 {
		t.Errorf("Routes, NumNodes, MaxHops, Repairs = %d, %d, %d, %d, want 1500, 115, 3, 85",
			st.Routes, st.NumNodes, st.MaxHops, st.Repairs)
	}
	if got := math.Float64bits(st.MeanHops); got != pinnedHops {
		t.Errorf("MeanHops = %v (bits %#x), want bits %#x", st.MeanHops, got, pinnedHops)
	}
	if got := math.Float64bits(st.MeanStretch); got != pinnedStretch {
		t.Errorf("MeanStretch = %v (bits %#x), want bits %#x", st.MeanStretch, got, pinnedStretch)
	}
}
