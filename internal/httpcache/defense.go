package httpcache

import (
	"sync/atomic"
	"time"

	"webcache/internal/invariant"
	"webcache/internal/p2p"
	"webcache/internal/trace"
)

// Defenses bundles the proxy's request-path protections against the
// failure and attack modes the paper's federation has no answer to
// (it trusts client caches completely and assumes peers answer
// promptly — see DESIGN.md §11):
//
//   - per-call deadlines: every hop to a client cache or another
//     proxy (Proxy.hop) is bounded by PeerTimeout, so one slow peer
//     cannot stall the whole fetch chain;
//   - receipt-verification sampling: every VerifyEvery-th client-cache
//     serve is digest-checked against the body the proxy passed down,
//     catching byzantine daemons that serve corrupted objects;
//   - contribution accounting: per-client serve/timeout/digest-failure
//     counters feed the liveness sweeper, which evicts clients whose
//     strikes outweigh their contribution;
//   - a per-peer circuit breaker: BreakerFailures consecutive
//     transport failures open the breaker and the proxy degrades to
//     origin until BreakerCooldown permits a half-open probe.
//
// The zero value means "deadlines only, everything else off"; defaults
// are filled by SetDefenses (and by NewProxyOpts for proxies that
// never call it).
type Defenses struct {
	// PeerTimeout is the per-call deadline on every hop (default 2s).
	// It layers under the shared client timeout: a hop made for a
	// requester derives its context from the inbound request, so a
	// disconnected requester also cancels the downstream call.
	PeerTimeout time.Duration
	// AdaptivePeerTimeout auto-tunes the per-call deadline from the
	// observed LAN p99: once enough successful LAN fetches have been
	// measured, the effective deadline becomes 4x their p99, clamped to
	// [minPeerTimeout, PeerTimeout].  The configured PeerTimeout stays
	// the ceiling (and the fallback until the histogram warms up), so a
	// cold or recovering proxy never times peers out on a guess.
	AdaptivePeerTimeout bool
	// VerifyEvery digest-checks every Nth client-cache serve against
	// the body digest recorded at pass-down (0 = off).  A mismatch is
	// treated as a miss and strikes the serving client.
	VerifyEvery int
	// BreakerFailures is the consecutive transport-failure count that
	// opens a cooperating proxy's circuit breaker (0 = off);
	// BreakerCooldown is how long an open breaker rejects before
	// allowing a half-open probe (default 5s).
	BreakerFailures int
	BreakerCooldown time.Duration
	// SweepStrikes is the strike budget (timeouts + 4x digest
	// failures) past which the sweeper deregisters a client cache
	// regardless of liveness (default 8).
	SweepStrikes int64
}

// Adaptive-deadline clamp: never tighten the per-call deadline below
// this floor, and never trust the histogram before it has this many
// successful fetches (a handful of lucky early samples would otherwise
// set an absurdly tight deadline).
const (
	minPeerTimeout         = 10 * time.Millisecond
	adaptiveTimeoutSamples = 32
)

func (d *Defenses) fillDefaults() {
	if d.PeerTimeout <= 0 {
		d.PeerTimeout = 2 * time.Second
	}
	if d.BreakerCooldown <= 0 {
		d.BreakerCooldown = 5 * time.Second
	}
	if d.SweepStrikes <= 0 {
		d.SweepStrikes = 8
	}
}

// SetDefenses configures the proxy's request-path protections.  Zero
// fields take their defaults.  Not safe to call after Serve starts.
func (p *Proxy) SetDefenses(d Defenses) {
	d.fillDefaults()
	p.defenses = d
}

// peerTimeout resolves the effective per-call deadline: the configured
// PeerTimeout, tightened to 4x the observed LAN p99 once
// AdaptivePeerTimeout is on and the latency histogram has warmed up.
// Clamped to [minPeerTimeout, PeerTimeout].
func (p *Proxy) peerTimeout() time.Duration {
	d := p.defenses.PeerTimeout
	if !p.defenses.AdaptivePeerTimeout || p.lanLat.Count() < adaptiveTimeoutSamples {
		return d
	}
	t := 4 * p.lanLat.Quantile(0.99)
	if t < minPeerTimeout {
		t = minPeerTimeout
	}
	if t > d {
		t = d
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

// recordDigest remembers the digest of a body passed down to the
// client caches (only when verification sampling is on — the map
// tracks the directory's resident set, so dropDigest mirrors every
// dir.Remove site).
func (p *Proxy) recordDigest(folded trace.ObjectID, body []byte) {
	if p.defenses.VerifyEvery > 0 {
		p.digests.Store(folded, bodyDigest(body))
	}
}

func (p *Proxy) dropDigest(folded trace.ObjectID) {
	if p.defenses.VerifyEvery > 0 {
		p.digests.Delete(folded)
	}
}

// verifyBody samples client-cache serves and digest-checks them
// against the body recorded at pass-down.  It reports false on a
// mismatch — a byzantine (or bit-flipping) client cache; the caller
// treats the serve as a miss.
func (p *Proxy) verifyBody(folded trace.ObjectID, body []byte) bool {
	n := p.defenses.VerifyEvery
	if n <= 0 {
		return true
	}
	if int(p.verifySeq.Add(1))%n != 0 {
		return true
	}
	want, ok := p.digests.Load(folded)
	if !ok {
		return true // nothing recorded for this object (pre-defense store)
	}
	p.stats.digestChecks.Add(1)
	if want.(uint64) != bodyDigest(body) {
		p.stats.digestFailures.Add(1)
		return false
	}
	return true
}

// contribution is one client cache's serve-vs-strike ledger; the
// sweeper evicts clients whose strikes exhaust the budget.
type contribution struct {
	serves      atomic.Int64
	timeouts    atomic.Int64
	digestFails atomic.Int64
}

func (c *contribution) strikes() int64 {
	return c.timeouts.Load() + 4*c.digestFails.Load()
}

func (p *Proxy) contribFor(addr string) *contribution {
	if c, ok := p.contrib.Load(addr); ok {
		return c.(*contribution)
	}
	c, _ := p.contrib.LoadOrStore(addr, &contribution{})
	return c.(*contribution)
}

// contribCondemned reports whether addr's strike ledger warrants
// eviction: the strike budget is spent and the client has not earned
// it back with serves.
func (p *Proxy) contribCondemned(addr string) bool {
	v, ok := p.contrib.Load(addr)
	if !ok {
		return false
	}
	c := v.(*contribution)
	s := c.strikes()
	return s >= p.defenses.SweepStrikes && s > c.serves.Load()/4
}

// breaker is a per-peer circuit breaker: consecutive transport
// failures open it; after the cooldown one half-open probe is
// admitted, and a success closes it again.
type breaker struct {
	failures atomic.Int64
	openedAt atomic.Int64 // unixnano; 0 = closed
}

func (p *Proxy) breakerFor(peer string) *breaker {
	if b, ok := p.breakers.Load(peer); ok {
		return b.(*breaker)
	}
	b, _ := p.breakers.LoadOrStore(peer, &breaker{})
	return b.(*breaker)
}

// peerAllowed reports whether the breaker admits a call to peer.
func (p *Proxy) peerAllowed(peer string) bool {
	if p.defenses.BreakerFailures <= 0 {
		return true
	}
	b := p.breakerFor(peer)
	opened := b.openedAt.Load()
	if opened == 0 {
		return true
	}
	now := time.Now().UnixNano()
	if now-opened < int64(p.defenses.BreakerCooldown) {
		return false
	}
	// Half-open: exactly one prober wins the CAS and carries the probe;
	// everyone else keeps degrading until it reports back.
	return b.openedAt.CompareAndSwap(opened, now)
}

// peerFailed records a transport failure against peer, opening the
// breaker at the threshold.
func (p *Proxy) peerFailed(peer string) {
	if p.defenses.BreakerFailures <= 0 {
		return
	}
	b := p.breakerFor(peer)
	if int(b.failures.Add(1)) >= p.defenses.BreakerFailures {
		if b.openedAt.CompareAndSwap(0, time.Now().UnixNano()) {
			p.stats.breakerOpens.Add(1)
			p.events.Emit("breaker.open", map[string]string{"peer": peer})
		}
	}
}

// peerOK records a successful round trip (a miss answer counts —
// the peer is healthy), closing the breaker.
func (p *Proxy) peerOK(peer string) {
	if p.defenses.BreakerFailures <= 0 {
		return
	}
	b := p.breakerFor(peer)
	b.failures.Store(0)
	if b.openedAt.Swap(0) != 0 {
		p.events.Emit("breaker.close", map[string]string{"peer": peer})
	}
}

// EnableAccounting threads a live conservation oracle through the
// proxy's pass-down receipt stream (invariant.ClusterAccountant, in
// lenient mode — live receipts do not cover crash losses or races the
// way the simulator's do, so only the ledger identity and the
// receipt-shape assertions apply).  Call before Serve starts;
// ReconcileAccounting asserts the ledger at any quiescent point.
func (p *Proxy) EnableAccounting(chk *invariant.Checker) {
	p.acctMu.Lock()
	defer p.acctMu.Unlock()
	p.chk = chk
	p.acct = invariant.NewClusterAccountant(chk, "live")
	p.acct.Lenient()
	if p.fleet != nil && p.fleet.acct == nil {
		p.fleet.acct = invariant.NewClusterAccountant(chk, "fleet-live")
		p.fleet.acct.Lenient()
	}
}

// ReconcileAccounting checks the conservation ledgers — the pass-down
// ledger and, on a fleet member, the replica-aware fleet ledger
// (no-op without EnableAccounting).
func (p *Proxy) ReconcileAccounting() {
	p.acctMu.Lock()
	defer p.acctMu.Unlock()
	p.acct.Reconcile(nil)
	if p.fleet != nil {
		p.fleet.acct.Reconcile(nil)
	}
}

// recordReceipt feeds one pass-down store receipt into the live
// accountant.
func (p *Proxy) recordReceipt(hexKey string, rec *StoreReceipt, diverted bool) {
	if p.acct == nil {
		return
	}
	r := p2p.Receipt{
		Stored:   fold(keyFromHex(hexKey)),
		StoredOK: rec.Stored,
		Diverted: diverted,
	}
	for _, ev := range rec.Evicted {
		r.Evicted = append(r.Evicted, fold(keyFromHex(ev)))
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
