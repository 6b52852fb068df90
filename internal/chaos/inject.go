package chaos

import (
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"webcache/internal/obs"
)

// Injector turns a Scenario into the loadgen topology's handler
// wrappers (TopologyConfig.WrapProxy / WrapCache).  Fault placement is
// deterministic in the daemon's topology index — no randomness, so a
// scenario stresses the same daemons run after run and the bench gate
// compares like with like:
//
//   - the first k = round(fraction*n) daemons of each proxy are the
//     slow (or byzantine) ones;
//   - byzantine daemons alternate mode by index parity: even indices
//     corrupt served bodies, odd indices fabricate store receipts.
type Injector struct {
	scn            Scenario
	cachesPerProxy int

	slowHolds    *obs.Counter
	corruptBody  *obs.Counter
	fakeReceipts *obs.Counter
	// stalls counts the /object requests each slow daemon held, by
	// (proxy, cache index); WrapCache fills it as the topology starts.
	stalls map[[2]int]*atomic.Int64
}

// NewInjector builds the fault adapter for one scenario.  The
// chaos.injected.* counters land in reg (nil disables counting, not
// injection).
func NewInjector(scn Scenario, cachesPerProxy int, reg *obs.Registry) *Injector {
	return &Injector{
		scn:            scn,
		cachesPerProxy: cachesPerProxy,
		slowHolds:      reg.Counter("chaos.injected.slow_holds"),
		corruptBody:    reg.Counter("chaos.injected.corrupt_bodies"),
		fakeReceipts:   reg.Counter("chaos.injected.fake_receipts"),
		stalls:         make(map[[2]int]*atomic.Int64),
	}
}

// affected reports whether daemon index i is in the first
// round(fraction*n) of its proxy's n daemons (at least one when the
// fraction is set at all).
func (in *Injector) affected(i int, fraction float64) bool {
	if fraction <= 0 || in.cachesPerProxy <= 0 {
		return false
	}
	k := int(math.Round(fraction * float64(in.cachesPerProxy)))
	if k < 1 {
		k = 1
	}
	return i < k
}

// WrapProxy injects the inter-proxy fault: the slow-peer stall on
// every /peer-lookup this proxy serves.
func (in *Injector) WrapProxy(_ int, h http.Handler) http.Handler {
	if !in.scn.SlowPeers {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/peer-lookup" {
			in.slowHolds.Inc()
			time.Sleep(slowPeerDelay)
		}
		h.ServeHTTP(w, r)
	})
}

// WrapCache injects the client-cache faults: tail amplification on the
// serving paths of slow daemons, and the two byzantine behaviours.
func (in *Injector) WrapCache(proxy, cache int, h http.Handler) http.Handler {
	slow := in.scn.SlowPeers && in.affected(cache, slowPeerFraction)
	byz := in.scn.Byzantine && in.affected(cache, byzantineFraction)
	corrupts := byz && cache%2 == 0
	fabricates := byz && cache%2 == 1
	if !slow && !byz {
		return h
	}
	stalls := new(atomic.Int64)
	if slow {
		in.stalls[[2]int{proxy, cache}] = stalls
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if slow && r.URL.Path == "/object" {
			in.slowHolds.Inc()
			stalls.Add(1)
			time.Sleep(slowPeerDelay)
		}
		if fabricates && r.URL.Path == "/store" {
			// Claim success without storing a byte: the proxy's
			// directory learns a key this daemon will never serve.
			in.fakeReceipts.Inc()
			w.Write([]byte("1"))
			return
		}
		if corrupts && r.URL.Path == "/object" {
			in.corruptBody.Inc()
			h.ServeHTTP(&corruptingWriter{ResponseWriter: w}, r)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// corruptingWriter flips every byte of a 200 response body — the
// corrupt-server byzantine mode.  Non-200 responses (404 misses, 507
// ifFree rejections) pass through untouched so the daemon's control
// signals stay honest; only the object bytes lie.
type corruptingWriter struct {
	http.ResponseWriter
	status int
}

func (cw *corruptingWriter) WriteHeader(code int) {
	cw.status = code
	cw.ResponseWriter.WriteHeader(code)
}

func (cw *corruptingWriter) Write(b []byte) (int, error) {
	if cw.status != 0 && cw.status != http.StatusOK {
		return cw.ResponseWriter.Write(b)
	}
	flipped := make([]byte, len(b))
	for i, c := range b {
		flipped[i] = c ^ 0xFF
	}
	n, err := cw.ResponseWriter.Write(flipped)
	return n, err
}
