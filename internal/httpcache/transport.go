package httpcache

import (
	"bufio"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webcache/internal/pastry"
)

// NewTransport returns the tuned *http.Transport of the load generator's
// driver (internal/loadgen), the live system's one HTTP client of note.
// The proxy's own outbound traffic, hops and origin GETs alike, travels
// on a connPool (below).
//
// The stock http.DefaultTransport keeps only 2 idle connections per
// host (MaxIdleConnsPerHost), so under load every hot proxy serializes
// on two pooled connections and the rest of the traffic pays a fresh
// TCP handshake per request.
func NewTransport() *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 0 // no global cap; the per-host limit governs
	tr.MaxIdleConnsPerHost = maxIdleConns
	tr.IdleConnTimeout = 90 * time.Second
	tr.WriteBufferSize, tr.ReadBufferSize = wireBuf, wireBuf
	return tr
}

// wireConn is one connection of the proxy's outbound wire, a hop's
// (upgraded to frames) or an origin GET's, or at the far end one a frame
// server holds (frame.go).
type wireConn struct {
	net.Conn
	br *bufio.Reader
	bw *bufio.Writer
	// The client end's watcher (watchCancel) closes the connection when
	// the context an exchange hands it on ctxs is cancelled; the exchange
	// takes the context back by receiving on fired, which says whether
	// it was.  Both are made on the connection's first cancellable
	// exchange.
	ctxs  chan context.Context
	fired chan bool
}

func newWireConn(c net.Conn) *wireConn {
	return &wireConn{Conn: c, br: bufio.NewReaderSize(c, wireBuf), bw: bufio.NewWriterSize(c, wireBuf)}
}

// maxIdleConns is how many idle connections a pool keeps per address.
const maxIdleConns = 256

// connPool is the client end of the proxy's outbound wire: idle
// connections by address.  The proxy keeps two, one per use: its hops'
// (upgrade set: each connection is upgraded to frames as it is dialled)
// and its origin GETs'.  A connection goes back only after an exchange
// that ended cleanly; one that saw any error is closed.
type connPool struct {
	mu      sync.Mutex
	idle    map[string][]*wireConn
	upgrade bool
	// dial opens a connection to an address under ctx, whose deadline is
	// the exchange's (tests count the bytes through it).
	dial func(ctx context.Context, addr string) (net.Conn, error)
}

func newConnPool(dial func(context.Context, string) (net.Conn, error), upgrade bool) *connPool {
	return &connPool{idle: make(map[string][]*wireConn), upgrade: upgrade, dial: dial}
}

// dialTCP dials a hop's host:port.
func dialTCP(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

// dialOrigin dials an origin by its pool address, scheme://host:port
// (originAddr): an https origin through crypto/tls, with the system's
// roots and full verification.
func dialOrigin(ctx context.Context, addr string) (net.Conn, error) {
	scheme, hostPort, _ := strings.Cut(addr, "://")
	if scheme == "https" {
		var d tls.Dialer
		return d.DialContext(ctx, "tcp", hostPort)
	}
	return dialTCP(ctx, hostPort)
}

// get returns an idle connection to addr, or dials (and upgrades, for
// hops) a new one by deadline, which ctx's cancellation cuts short.
// reused reports which.
func (p *connPool) get(ctx context.Context, deadline time.Time, addr string) (c *wireConn, reused bool, err error) {
	p.mu.Lock()
	if cs := p.idle[addr]; len(cs) > 0 {
		c = cs[len(cs)-1]
		cs[len(cs)-1] = nil
		p.idle[addr] = cs[:len(cs)-1]
		p.mu.Unlock()
		return c, true, nil
	}
	p.mu.Unlock()
	// A dial is once per connection, so it may take a context of its own.
	dctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	raw, err := p.dial(dctx, addr)
	if err != nil {
		return nil, false, err
	}
	c = newWireConn(raw)
	if p.upgrade {
		if _, err = c.exchange(ctx, deadline, func(c *wireConn) (bool, error) { return true, c.upgrade(addr) }); err != nil {
			c.close()
			return nil, false, err
		}
	}
	return c, false, nil
}

func (p *connPool) put(addr string, c *wireConn) {
	p.mu.Lock()
	if cs := p.idle[addr]; len(cs) < maxIdleConns {
		p.idle[addr] = append(cs, c)
		c = nil
	}
	p.mu.Unlock()
	if c != nil {
		c.close()
	}
}

// closeIdle closes every idle connection; those out on an exchange close
// as they come back with an error or are pooled again.
func (p *connPool) closeIdle() {
	p.mu.Lock()
	idle := p.idle
	p.idle = make(map[string][]*wireConn)
	p.mu.Unlock()
	for _, cs := range idle {
		for _, c := range cs {
			c.close()
		}
	}
}

// do runs one exchange with addr by deadline: rt writes the request on
// a connection and reads the reply, and reports whether the connection
// may be pooled after it.  A pooled connection that brings back no byte
// of a reply (errNoReply) was closed by the far end while it sat idle,
// and the request is sent again, on the next pooled connection or a
// fresh one, as net/http's transport retries a request on a kept-alive
// connection the server had closed; a fresh connection is never retried.
func (p *connPool) do(ctx context.Context, deadline time.Time, addr string, rt func(*wireConn) (keep bool, err error)) error {
	for {
		c, reused, err := p.get(ctx, deadline, addr)
		if err != nil {
			return err
		}
		keep, err := c.exchange(ctx, deadline, rt)
		if err == nil && keep {
			p.put(addr, c)
		} else {
			c.close()
		}
		if err == nil {
			return nil
		}
		var idle errNoReply
		if !reused || !errors.As(err, &idle) || ctx.Err() != nil || isTimeout(err) {
			return err
		}
	}
}

// exchange runs rt on c under deadline, the connection's one bound for
// it, and under ctx's watch: a cancelled ctx closes the connection, and
// the exchange ends with ctx's error.
func (c *wireConn) exchange(ctx context.Context, deadline time.Time, rt func(*wireConn) (bool, error)) (keep bool, err error) {
	c.SetDeadline(deadline)
	if c.watch(ctx) {
		defer func() {
			if <-c.fired {
				keep, err = false, ctx.Err()
			}
		}()
	}
	return rt(c)
}

// watch hands ctx to the connection's watcher for one exchange, which
// then takes it back by receiving on fired.  The watcher starts on the
// connection's first cancellable exchange; a ctx that is never cancelled
// (context.Background) is not handed over, and watch reports false.
func (c *wireConn) watch(ctx context.Context) bool {
	if ctx.Done() == nil {
		return false
	}
	if c.ctxs == nil {
		c.ctxs, c.fired = make(chan context.Context), make(chan bool)
		go c.watchCancel()
	}
	c.ctxs <- ctx
	return true
}

// watchCancel is the client end's watcher: it closes the connection when
// the context of the exchange under way is cancelled, which ends a read
// the far end has not answered, and it ends with the connection (close).
func (c *wireConn) watchCancel() {
	defer close(c.fired)
	for ctx := range c.ctxs {
		select {
		case <-ctx.Done():
			c.Conn.Close()
			c.fired <- true
		case c.fired <- false:
		}
	}
}

// close ends the connection and its watcher, and returns once the
// watcher has stopped.  No exchange is out: the watcher is waiting for
// the next.
func (c *wireConn) close() {
	c.Conn.Close()
	if c.ctxs != nil {
		close(c.ctxs)
		<-c.fired
	}
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

// writeGet writes an origin GET for u: the request line, with u's path
// and query, and the Host header, nothing else (DESIGN.md §9, "The
// wire").
func writeGet(w *bufio.Writer, u *url.URL) {
	path := u.EscapedPath()
	if path == "" {
		path = "/"
	}
	w.WriteString("GET ")
	w.WriteString(path)
	if u.RawQuery != "" || u.ForceQuery {
		w.WriteByte('?')
		w.WriteString(u.RawQuery)
	}
	w.WriteString(" HTTP/1.1\r\nHost: ")
	w.WriteString(u.Host)
	w.WriteString("\r\n\r\n")
}

// readOriginReply reads one origin reply, which net/http's parser takes
// apart (chunked, close-delimited and HTTP/1.0 replies included), and
// returns a 200's body, read whole by readBody; any other status is an
// error.  keep reports a reply after which the connection may carry the
// next GET: one read to its end that did not ask to close, with nothing
// past it buffered.  A connection that ends before the first byte is
// errNoReply.
func readOriginReply(br *bufio.Reader) (body []byte, keep bool, err error) {
	if _, err := br.Peek(1); err != nil {
		return nil, false, errNoReply{err}
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("origin status %d", resp.StatusCode)
	}
	if body, err = readBody(resp.Body, resp.ContentLength); err != nil {
		return nil, false, fmt.Errorf("reading origin body: %w", err)
	}
	return body, !resp.Close && br.Buffered() == 0, nil
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

// hop is one call to another daemon of the federation, a frame on a
// pooled connection (frame.go), and the only place a per-hop deadline is
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
// hops' and origin GETs' alike.  Shutdown paths call this before
// draining servers: a frame connection left open holds its far end's
// frame loop, and an idle connection's watcher ends with it.
func (p *Proxy) CloseIdleConnections() {
	p.hops.closeIdle()
	p.origins.closeIdle()
}
