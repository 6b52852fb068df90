package httpcache

import (
	"sync/atomic"
	"time"

	"webcache/internal/invariant"
	"webcache/internal/p2p"
	"webcache/internal/trace"
)

// A hardened proxy (Options.Hardened) adds the request-path protections
// against the failure and attack modes the paper's federation has no
// answer to (it trusts client caches completely and assumes peers
// answer promptly — see DESIGN.md §11):
//
//   - a tight per-hop deadline: every hop to a client cache or another
//     proxy (Proxy.hop) is bounded by hardenedPeerTimeout, tightened to
//     4x the observed LAN p99, so one slow peer cannot stall the whole
//     fetch chain;
//   - receipt-verification sampling: every verifyEvery-th client-cache
//     serve is digest-checked against the body the proxy passed down,
//     catching byzantine daemons that serve corrupted objects;
//   - a per-peer circuit breaker: breakerFailures consecutive transport
//     failures open a cooperating proxy's breaker and the proxy
//     degrades to origin until breakerCooldown permits a half-open
//     probe.
//
// hardenedPeerTimeout sits far under the chaos suite's injected 250 ms
// stall.  Every proxy keeps the contribution ledgers the liveness
// sweeper reads, and bounds every hop by defaultPeerTimeout when not
// hardened.
// A hop layers its deadline under the shared client timeout: a hop made
// for a requester derives its context from the inbound request, so a
// disconnected requester also cancels the downstream call.
const (
	defaultPeerTimeout  = 2 * time.Second
	hardenedPeerTimeout = 75 * time.Millisecond
)

// The rest of the hardened tuning, sized for loopback chaos runs: a
// digest check on every second client serve, and a breaker fast
// enough that degradation to origin happens within a run.  Variables
// only so a test can make one failure open a breaker for good or check
// every serve; nothing else sets them.
var (
	verifyEvery     = 2
	breakerFailures = 3
	breakerCooldown = 500 * time.Millisecond
)

// Adaptive-deadline clamp: never tighten the per-call deadline below
// this floor, and never trust the histogram before it has this many
// successful fetches (a handful of lucky early samples would otherwise
// set an absurdly tight deadline).
const (
	minPeerTimeout         = 10 * time.Millisecond
	adaptiveTimeoutSamples = 32
)

// sweepStrikes is the strike budget (timeouts + 4x digest failures)
// past which the sweeper deregisters a client cache regardless of
// liveness.
const sweepStrikes = 8

// peerTimeout resolves the effective per-call deadline: on a hardened
// proxy, hardenedPeerTimeout, tightened to 4x the observed LAN p99
// once the latency histogram has warmed up and clamped to
// [minPeerTimeout, hardenedPeerTimeout]; otherwise defaultPeerTimeout.
func (p *Proxy) peerTimeout() time.Duration {
	if !p.hardened {
		return defaultPeerTimeout
	}
	if p.lanLat.Count() < adaptiveTimeoutSamples {
		return hardenedPeerTimeout
	}
	t := 4 * p.lanLat.Quantile(0.99)
	if t < minPeerTimeout {
		t = minPeerTimeout
	}
	if t > hardenedPeerTimeout {
		t = hardenedPeerTimeout
	}
	return t
}

// bodyDigest is the FNV-1a 64-bit hash of an object body — cheap
// enough to compute at pass-down time and on sampled serves.
func bodyDigest(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// verifyBody samples client-cache serves and digest-checks them
// against the body's digest the directory listed it with at pass-down.
// It reports false on a mismatch — a byzantine (or bit-flipping) client
// cache; the caller treats the serve as a miss.
func (p *Proxy) verifyBody(folded trace.ObjectID, body []byte) bool {
	if !p.hardened || int(p.verifySeq.Add(1))%verifyEvery != 0 {
		return true
	}
	p.mu.Lock()
	want := p.dir[folded]
	p.mu.Unlock()
	if want == 0 {
		return true // not listed any more, or listed with no digest
	}
	p.stats.digestChecks.Add(1)
	if want != bodyDigest(body) {
		p.stats.digestFailures.Add(1)
		return false
	}
	return true
}

// contribution is one client cache's serve-vs-strike ledger, kept on
// its ring record; the sweeper evicts clients whose strikes exhaust the
// budget.
type contribution struct {
	serves      atomic.Int64
	timeouts    atomic.Int64
	digestFails atomic.Int64
}

func (c *contribution) strikes() int64 {
	return c.timeouts.Load() + 4*c.digestFails.Load()
}

// condemned reports whether the ledger warrants eviction: the strike
// budget is spent and the client has not earned it back with serves.
func (c *contribution) condemned() bool {
	s := c.strikes()
	return s >= sweepStrikes && s > c.serves.Load()/4
}

// breaker is a cooperating proxy's circuit breaker, kept on its record:
// consecutive transport failures open it; after the cooldown one
// half-open probe is admitted, and a success closes it again.
type breaker struct {
	failures atomic.Int64
	openedAt atomic.Int64 // unixnano; 0 = closed
}

// peerAllowed reports whether to's breaker admits a call to it.
func (p *Proxy) peerAllowed(to *peer) bool {
	if !p.hardened {
		return true
	}
	b := &to.breaker
	opened := b.openedAt.Load()
	if opened == 0 {
		return true
	}
	now := time.Now().UnixNano()
	if now-opened < int64(breakerCooldown) {
		return false
	}
	// Half-open: exactly one prober wins the CAS and carries the probe;
	// everyone else keeps degrading until it reports back.
	return b.openedAt.CompareAndSwap(opened, now)
}

// peerFailed records a transport failure against to, opening the
// breaker at the threshold.
func (p *Proxy) peerFailed(to *peer) {
	if !p.hardened {
		return
	}
	b := &to.breaker
	if int(b.failures.Add(1)) >= breakerFailures {
		if b.openedAt.CompareAndSwap(0, time.Now().UnixNano()) {
			p.stats.breakerOpens.Add(1)
			p.events.Emit("breaker.open", map[string]string{"peer": to.base})
		}
	}
}

// peerOK records a successful round trip (a miss answer counts —
// the peer is healthy), closing the breaker.
func (p *Proxy) peerOK(to *peer) {
	if !p.hardened {
		return
	}
	b := &to.breaker
	b.failures.Store(0)
	if b.openedAt.Swap(0) != 0 {
		p.events.Emit("breaker.close", map[string]string{"peer": to.base})
	}
}

// lenientAccountant is a live conservation oracle over a receipt
// stream (invariant.ClusterAccountant, in lenient mode — live receipts
// do not cover crash losses or races the way the simulator's do, so
// only the ledger identity and the receipt-shape assertions apply); nil
// without a checker.
func lenientAccountant(chk *invariant.Checker, label string) *invariant.ClusterAccountant {
	a := invariant.NewClusterAccountant(chk, label)
	a.Lenient()
	return a
}

// ReconcileAccounting checks the pass-down conservation ledger at a
// quiescent point (no-op without Options.Check).
func (p *Proxy) ReconcileAccounting() {
	p.acctMu.Lock()
	defer p.acctMu.Unlock()
	p.acct.Reconcile(nil)
}

// recordReceipt feeds one pass-down store receipt into the live
// accountant.
func (p *Proxy) recordReceipt(r p2p.Receipt) {
	if p.acct == nil {
		return
	}
	p.acctMu.Lock()
	p.acct.RecordStore(r)
	p.acctMu.Unlock()
}

// DefenseStats is the defense-counter slice of ProxyStats, kept as a
// named struct so chaos reports can aggregate it without pulling the
// whole stats payload apart.
type DefenseStats struct {
	BreakerSkipped int `json:"breaker_skipped"`
	BreakerOpens   int `json:"breaker_opens"`
	DigestChecks   int `json:"digest_checks"`
	DigestFailures int `json:"digest_failures"`
	ContribSwept   int `json:"contrib_swept"`
	PeerTimeouts   int `json:"peer_timeouts"`
}

// Add accumulates another proxy's defense counters (chaos reports).
func (d *DefenseStats) Add(o DefenseStats) {
	d.BreakerSkipped += o.BreakerSkipped
	d.BreakerOpens += o.BreakerOpens
	d.DigestChecks += o.DigestChecks
	d.DigestFailures += o.DigestFailures
	d.ContribSwept += o.ContribSwept
	d.PeerTimeouts += o.PeerTimeouts
}
