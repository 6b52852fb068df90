package httpcache

import (
	"context"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"webcache/internal/pastry"
)

// NewTransport returns the tuned *http.Transport every HTTP client of
// the live system shares the shape of: the proxy's origin fetches and
// the load generator's driver (internal/loadgen).  Member-to-member hops
// travel as frames (frame.go).
//
// The stock http.DefaultTransport keeps only 2 idle connections per
// host (MaxIdleConnsPerHost), so under load every hot peer or origin
// serializes on two pooled connections and the rest of the traffic
// pays a fresh TCP handshake per request.  A proxy's outbound fan-in
// concentrates on a handful of hosts — its client caches, its peers,
// the origins — which is exactly the topology that default starves.
func NewTransport() *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 0 // no global cap; the per-host limit governs
	tr.MaxIdleConnsPerHost = 256
	tr.IdleConnTimeout = 90 * time.Second
	tr.WriteBufferSize, tr.ReadBufferSize = wireBuf, wireBuf
	return tr
}

// newHTTPClient builds a client on a fresh tuned transport.
func newHTTPClient(timeout time.Duration) *http.Client {
	return &http.Client{Timeout: timeout, Transport: NewTransport()}
}

// drainCap bounds what drainClose reads from a reply nobody wants: the
// error texts and probe answers it drains are tens of bytes, and past a
// few KiB a fresh connection is cheaper than the read.
const drainCap = 4 << 10

// wireBuf sizes a pooled connection's write buffer and its read buffer,
// frame and HTTP alike: a head and an object-sized body leave in one write
// and a reply is taken in by one read, where 4 KiB cuts an 8 KiB message
// in three.
// Twice that was measured and costs the tail (the arithmetic and the
// measurement are in DESIGN.md §9, "The wire").
const wireBuf = 16 << 10

// bodyTrust is how much of a declared length readBody allocates before a
// byte of the body has arrived.
const bodyTrust = 1 << 20

// readBody reads one message body whole.  declared is the length its
// sender announced, as every daemon of the federation does, or -1.  A
// declared body is read straight into one slice of exactly that size, the
// caller's to keep, and one that ends short of its declaration is an
// error, never a short slice.  The declaration is still only the far end's
// word: the slice starts no larger than bodyTrust and doubles as bytes
// arrive to fill it.  With no length (a foreign origin's chunked reply)
// there is no size to read to, and the body is read by growth.
func readBody(r io.Reader, declared int64) ([]byte, error) {
	if declared < 0 {
		return io.ReadAll(r)
	}
	body := make([]byte, min(declared, bodyTrust))
	for read := 0; ; {
		if _, err := io.ReadFull(r, body[read:]); err != nil {
			return nil, err
		}
		if int64(len(body)) == declared {
			return body, nil
		}
		grown := make([]byte, min(2*int64(len(body)), declared))
		read = copy(grown, body)
		body = grown
	}
}

// drainClose reads what is left of a reply, up to drainCap, and closes
// it.  net/http returns a connection to the keep-alive pool only when
// its reply was read to EOF; closing a short text unread discards the
// connection, and the next call to that daemon pays a TCP dial.  Every
// HTTP call that can return before reading its reply to the end (a
// registration, a liveness probe) closes it through here.
func drainClose(body io.ReadCloser) {
	io.CopyN(io.Discard, body, drainCap)
	body.Close()
}

// peer is the proxy's one record of a daemon it makes hops to, shared
// by pointer: a client cache on its ring, or a cooperating proxy.  A hop
// dials addr.  Every field a request changes is atomic.
type peer struct {
	kind peerKind
	addr string // the host:port a hop dials

	// A client cache's: its ring id (the hash of addr), the headroom its
	// latest /store reply reported (FreeHeader; freeUnknown before the
	// first), and its contribution ledger.  A re-registration makes a new
	// record, so none of them outlives the registration it belongs to.
	id     pastry.ID
	free   atomic.Int64
	ledger contribution

	// A cooperating proxy's: its base URL, as events name it, the digest
	// last pulled of it (digest.go) and its breaker (defense.go).
	base    string
	digest  peerDigest
	breaker breaker
}

type peerKind int

const (
	clientCache peerKind = iota // a daemon on this proxy's ring, by the host:port it registered
	coopProxy                   // a cooperating proxy, one of Options.Peers
)

// reply is what a hop brought back: the status, the two headers a caller
// reads, and the whole body when the status is 200 (any other reply's
// text is discarded).
type reply struct {
	status   int
	servedBy string // X-Served-By
	free     int64  // X-Cache-Free, or -1 when the reply carried none
	body     []byte
}

// hop is one call to another daemon of the federation, over a pooled
// frame connection (frame.go), and the only place a per-hop deadline is
// set: peerTimeout() from now, or parent's deadline if that comes first,
// set on the connection.  A hop made for a requester passes the
// requester's context, so hanging up cancels it, and one that must
// outlive the request that caused it (a pass-down) passes
// context.Background.  A non-nil body is POSTed; traceID, when set,
// joins the far end's spans to the caller's trace.
//
// A hop that brings no complete reply is judged here, the same way for
// every caller.  The deadline (or the parent's cancellation while the
// hop is out) means the far end may only be slow: it counts as a peer_timeout and, for a
// client cache, as a strike on its contribution ledger, which the
// sweeper weighs.  Anything else is a connection-level failure, and
// only that takes a client cache off the ring: the record the hop was
// made with, not one its daemon has registered since.  For a proxy both are a
// failure for its breaker.  What a status means is the caller's
// business, a proxy's peerOK included.
func (p *Proxy) hop(parent context.Context, to *peer, q request, body []byte, traceID string) (reply, error) {
	if err := parent.Err(); err != nil {
		return reply{}, err // whoever the hop was for is gone: nobody is asked, nobody judged
	}
	deadline := time.Now().Add(p.peerTimeout())
	if d, ok := parent.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	rep, err := p.hops.exchange(parent, deadline, to.addr, q, body, traceID)
	if err == nil {
		return rep, nil
	}
	timedOut := parent.Err() != nil || isTimeout(err)
	if timedOut {
		p.stats.peerTimeouts.Add(1)
	}
	switch {
	case to.kind != clientCache:
		p.peerFailed(to)
	case timedOut:
		to.ledger.timeouts.Add(1)
	default:
		p.ring.remove(to) // this record only: one re-registered since is kept
	}
	return reply{}, err
}

// CloseIdleConnections drops the proxy's pooled outbound connections,
// frame and HTTP alike.  Shutdown paths call this before draining
// servers: a connection the transport dialed but never used sits in
// StateNew on the server side, and http.Server.Shutdown only reaps those
// after a hard-coded 5s grace, and a frame connection left open holds
// its far end's frame loop.
func (p *Proxy) CloseIdleConnections() {
	p.client.CloseIdleConnections()
	p.hops.closeIdle()
}
