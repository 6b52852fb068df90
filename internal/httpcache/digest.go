package httpcache

import (
	"context"
	"net/http"
	"sync/atomic"

	"webcache/internal/bloom"
	"webcache/internal/trace"
)

// Digests between cooperating proxies (Summary Cache, the paper's
// reference [7]; internal/sim/digest.go in the simulator): each proxy
// publishes a Bloom filter of what its /peer-lookup can serve, and asks
// a peer only when the digest it last pulled of it says "maybe".
// DESIGN.md §9 has the interval arithmetic and both errors' prices.

const (
	// DigestEvery is how many of its own /fetch requests a proxy serves
	// on one pulled digest of a peer before it pulls a fresh one.  The
	// simulator's Config.DigestInterval counts requests over every proxy,
	// so the same staleness there is DigestEvery × NumProxies.
	DigestEvery = 100
	// digestFPRate is the simulator's default (sim.DefaultBloomFPRate).
	digestFPRate = 0.01
)

// peerSet is the cooperating proxies SetPeers installed, in the order
// they are asked, with what this proxy holds of each one's digest.
type peerSet struct {
	bases   []string
	digests map[string]*peerDigest
}

// peerDigest is the last digest pulled of one cooperating proxy.
type peerDigest struct {
	// filter is nil while none is held — before the first pull, and after
	// a pull that brought none — and the peer is then asked as it would
	// be without digests.
	filter atomic.Pointer[bloom.Filter]
	// due is the request count from which the digest is pulled again;
	// pulling is set while a pull is in flight, so there is one at most.
	due     atomic.Int64
	pulling atomic.Bool
}

// handleDigest publishes this proxy's digest, built on demand over what
// /peer-lookup can serve: the memory tier, the disk tier and, as the
// directory records them, the client caches.  The directory is copied
// under the lock the request path shares, and not sorted there.
func (p *Proxy) handleDigest(w http.ResponseWriter, _ *http.Request) {
	items := p.store.Items()
	p.mu.Lock()
	keys := p.dir.AppendObjects(make([]trace.ObjectID, 0, len(items)+p.dir.Len()))
	p.mu.Unlock()
	for _, it := range items {
		keys = append(keys, it.Key)
	}
	if p.disk != nil {
		keys = append(keys, p.disk.Keys()...)
	}
	f := bloom.NewForCapacity(len(keys), digestFPRate)
	for _, key := range keys {
		f.Add(uint64(key))
	}
	body, err := f.MarshalBinary()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h["Content-Length"] = contentLength(len(body))
	h["Content-Type"] = contentTypeOctet
	w.Write(body)
}

// digestAdmits reports whether base is worth asking for q's object: the
// digest held of it says it may have it, or none is held.  It also
// keeps the digest fresh, pulling one that is due off the request path.
// A proxy whose requests never reach this tier pulls nothing.
func (p *Proxy) digestAdmits(q fetchReq, base string) bool {
	d := p.coop.Load().digests[base]
	if d == nil {
		return true // the peer set changed under this request
	}
	if p.stats.requests.Load() >= d.due.Load() && d.pulling.CompareAndSwap(false, true) {
		p.pulls.Add(1)
		go func() {
			defer p.pulls.Done()
			defer d.pulling.Store(false)
			p.pullDigest(base, d)
		}()
	}
	if f := d.filter.Load(); f != nil && !f.MayContain(uint64(q.folded)) {
		p.stats.digestSkips.Add(1)
		return false
	}
	return true
}

// pullDigest fetches base's digest through hop, which judges a refusal
// or a hang as it judges any hop to a proxy, and holds it for the next
// DigestEvery requests.  Anything but a well-formed digest drops the one
// held, so the peer is asked as if there were no digests, under its
// breaker, until the next pull.
func (p *Proxy) pullDigest(base string, d *peerDigest) {
	d.due.Store(p.stats.requests.Load() + DigestEvery)
	var f *bloom.Filter
	rep, err := p.hop(context.Background(), peer{coopProxy, base}, "GET", "/digest", nil, "")
	if err == nil && rep.status == http.StatusOK {
		f = new(bloom.Filter)
		if f.UnmarshalBinary(rep.body) != nil {
			f = nil
		}
	}
	d.filter.Store(f)
	if f == nil {
		p.stats.digestPullFails.Add(1)
		return
	}
	p.peerOK(base)
	p.stats.digestPulls.Add(1)
}
