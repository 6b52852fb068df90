package httpcache

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/httputil"
	"net/textproto"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"webcache/internal/pastry"
)

// Transport is the outbound wire's HTTP/1.1 client, which the proxy's
// origin GETs (originFetch) and the load generator's requests
// (internal/loadgen) both travel: each is a GET on a connection of a
// connPool that does not upgrade, pooled by poolAddr.  A request is a GET
// with no body to an http:// or https:// URL, and it goes out as the
// request line, Host and the request's header fields, nothing else: no
// User-Agent, no Accept-Encoding.  An https URL is dialled through
// crypto/tls with the system's roots (dialOrigin).  One deadline bounds
// each exchange, dial, reply and body together: originTimeout from now,
// or the request context's deadline if that comes first (connPool.send);
// the context's cancellation closes the connection through its watcher.
//
// The reply's head is read by the Transport's own reader
// (readReplyHead), by net/http's rules, up to http.DefaultMaxHeaderBytes,
// with informational 1xx heads skipped; its body streams from the
// connection (replyBody).  A body read to its end goes back to the pool
// at Close when the reply left its connection fit for the next request
// (reusable); one closed short of its end closes the connection.
//
// The body belongs to its connection, not to the reply, so that a request
// allocates none: the caller reads a body and closes it from one
// goroutine, and does nothing with it after Close.  A second Close before
// the connection is taken again does nothing.  One after it carries the
// next request is not caught: it acts on that request's exchange, and
// closes its connection under it.
type Transport struct{ pool *connPool }

// NewTransport returns a Transport with no connection yet.  Its replies'
// bodies are the caller's until Close and not after (Transport).
func NewTransport() *Transport { return &Transport{pool: newConnPool(dialOrigin, false)} }

// RoundTrip implements http.RoundTripper for a GET with no body; any
// other request is refused before anything is dialled, and its body
// closed.  It is the one place a reply becomes an http.Response, because
// its callers (http.Client among them) read the Header after Close: the
// Response, its Header and the head's string are the reply's own.  A
// chunked reply's Trailer declares the keys its head names, and the
// trailer's fields fill it in when the body reaches its end (readTrailer),
// as net/http's does.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.Host
	if host == "" {
		host = req.URL.Host
	}
	addr, err := poolAddr(req.URL)
	switch {
	case req.Method != "" && req.Method != http.MethodGet:
		err = fmt.Errorf("the transport sends GET only, not %s", req.Method)
	case req.Body != nil && req.Body != http.NoBody:
		err = errors.New("the transport sends no request body")
	case err == nil:
		err = checkGet(req.URL, host, req.Header)
	}
	if err != nil {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("httpcache: %w", err)
	}
	c, err := t.get(req.Context(), addr, req.URL, host, req.Header, true)
	if err != nil {
		return nil, err
	}
	h := &c.head
	resp := &http.Response{
		Status: h.status, StatusCode: h.code,
		Proto: h.proto, ProtoMajor: h.major, ProtoMinor: h.minor,
		Header: h.header(), Body: &c.body, ContentLength: h.length, Close: h.close,
		Request: req,
	}
	if h.chunked {
		resp.TransferEncoding = []string{"chunked"}
		resp.Trailer = h.trailer()
		c.body.trailer = &resp.Trailer
	}
	return resp, nil
}

// get sends a GET for u to host, with hdr's fields, on a connection to
// addr (poolAddr), and returns the connection as soon as the reply's head
// is in (readReplyHead, whose own it passes on): its head is the parsed
// reply, and its body streams the reply's body (replyBody).  Both are the
// connection's, so the caller reads what it needs of the head before it
// closes the body.
func (t *Transport) get(ctx context.Context, addr string, u *url.URL, host string, hdr http.Header, own bool) (*wireConn, error) {
	c, watched, err := t.pool.send(ctx, originTimeout, addr, func(c *wireConn) (err error) {
		if err = c.writeGet(u, host, hdr); err == nil {
			err = c.readReplyHead(own)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	c.body = replyBody{c: c, pool: t.pool, addr: addr, ctx: ctx, watched: watched, left: c.head.length}
	if c.head.chunked && c.head.length < 0 {
		c.body.chunks = httputil.NewChunkedReader(c.br)
	}
	return c, nil
}

// CloseIdleConnections closes the Transport's idle connections, and with
// them their watchers.
func (t *Transport) CloseIdleConnections() { t.pool.closeIdle() }

// poolAddr names the pool u's connections are kept in, which is also
// what dialOrigin dials: host:port for an http URL, u.Host itself when the
// URL spells its port, so nothing is built then; https://host:port for an
// https one.  A port left out is the scheme's.
func poolAddr(u *url.URL) (string, error) {
	if u.Scheme != "http" && u.Scheme != "https" || u.Host == "" {
		return "", errors.New("only http:// and https:// URLs with a host are fetched")
	}
	addr := u.Host
	if u.Port() == "" {
		port := "80"
		if u.Scheme == "https" {
			port = "443"
		}
		addr = net.JoinHostPort(u.Hostname(), port)
	}
	if u.Scheme == "https" {
		return "https://" + addr, nil
	}
	return addr, nil
}

// replyBody is a Transport reply's body, read from the connection the
// reply came on, which holds it (one per connection, so a request
// allocates none): a declared length counted down, chunks
// (httputil.NewChunkedReader) and their trailer, or everything to the
// connection's end.  The read's first error or EOF ends the exchange and
// takes its context back from the watcher.  Close then pools the
// connection if the body was read to its end, or there was none, and the
// reply left it reusable, and closes it otherwise.  After Close the
// connection may carry another request, and this body with it, so the
// caller reads and closes a body once.
type replyBody struct {
	c       *wireConn
	pool    *connPool
	addr    string
	ctx     context.Context
	watched bool
	left    int64        // the declared bytes not yet read; -1 when the body ends with the connection
	chunks  io.Reader    // a chunked body's reader, which left does not count
	trailer *http.Header // where a chunked body's trailer goes (RoundTrip's Response), or nil
	end     error        // the read's first error; io.EOF at the body's end
	closed  bool
}

func (b *replyBody) Read(p []byte) (n int, err error) {
	if b.end != nil {
		return 0, b.end
	}
	switch {
	case b.chunks != nil:
		if n, err = b.chunks.Read(p); err == io.EOF {
			err = b.c.readTrailer(b.trailer)
		}
	case b.left < 0:
		n, err = b.c.br.Read(p)
	case b.left == 0:
		err = io.EOF
	default:
		if int64(len(p)) > b.left {
			p = p[:b.left]
		}
		n, err = b.c.br.Read(p)
		b.left -= int64(n)
		switch {
		case err == io.EOF && b.left > 0:
			err = io.ErrUnexpectedEOF
		case err == nil && b.left == 0:
			err = io.EOF // with the last bytes, so the connection is pooled without a further Read
		}
	}
	if err != nil {
		if b.c.unwatch(b.watched) {
			err = b.ctx.Err()
		}
		b.end = err
	}
	return n, err
}

func (b *replyBody) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	if b.end == nil {
		b.end = errBodyClosed
		if !b.c.unwatch(b.watched) && b.left == 0 && b.chunks == nil {
			b.end = io.EOF // a reply with no body ended with its head
		}
	}
	if b.end == io.EOF && reusable(&b.c.head, b.c.br) {
		b.pool.put(b.addr, b.c)
	} else {
		b.c.close()
	}
	return nil
}

// errBodyClosed is what a body closed short of its end reads.
var errBodyClosed = errors.New("httpcache: read on a closed reply body")

// wireConn is one connection of the outbound wire: a hop's, upgraded to
// frames, or a Transport's, which carries HTTP/1.1 GETs; or, at the far
// end, one a frame server holds (frame.go).
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
	// head is the Transport reply the connection carries, read into
	// headBuf (readReplyHead), and body its body.
	head    replyHead
	headBuf []byte
	body    replyBody
}

func newWireConn(c net.Conn) *wireConn {
	return &wireConn{Conn: c, br: bufio.NewReaderSize(c, wireBuf), bw: bufio.NewWriterSize(c, wireBuf)}
}

// maxIdleConns is how many idle connections a pool keeps per address.
const maxIdleConns = 256

// connPool is the client end of the outbound wire: idle connections by
// address, and the one loop every exchange runs (send).  The proxy keeps
// two: its hops' (upgrade set: a fresh connection is upgraded to frames
// before its first exchange) and its Transport's, which carries the
// origin GETs; the load generator's Transport keeps one of its own.  A
// connection goes back only after an exchange that ended cleanly; one
// that saw any error is closed.
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

// dialOrigin dials a Transport's pool address (poolAddr): host:port over
// TCP, and https://host:port through crypto/tls, with the system's roots
// and full verification.
func dialOrigin(ctx context.Context, addr string) (net.Conn, error) {
	if hostPort, ok := strings.CutPrefix(addr, "https://"); ok {
		var d tls.Dialer
		return d.DialContext(ctx, "tcp", hostPort)
	}
	return dialTCP(ctx, addr)
}

// get returns an idle connection to addr, or dials a new one by
// deadline, which ctx's cancellation cuts short.  reused reports which.
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
	return newWireConn(raw), false, nil
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

// send starts one exchange with addr, a hop's frame or a Transport's
// GET: it takes a connection (get), sets on it the exchange's one
// deadline, the earlier of timeout from now and ctx's, hands ctx to the
// connection's watcher, and upgrades a fresh hop connection to frames;
// then rt writes the request and reads the reply, or its head.
//
// A pooled connection that brings back no byte of a reply (errNoReply)
// was closed by the far end while it sat idle, and the request is sent
// again, on the next pooled connection or a fresh one, as net/http's
// transport retries a request on a kept-alive connection the server had
// closed; a fresh connection, a cancelled ctx or a deadline that ran out
// is never retried.  A connection that saw an error is closed.  One whose
// exchange succeeded comes back still watched (watched reports whether
// ctx was handed over): the caller takes ctx back (unwatch) when the
// exchange ends, and pools or closes the connection.
func (p *connPool) send(ctx context.Context, timeout time.Duration, addr string, rt func(*wireConn) error) (*wireConn, bool, error) {
	deadline := time.Now().Add(timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	for {
		c, reused, err := p.get(ctx, deadline, addr)
		if err != nil {
			return nil, false, err
		}
		c.SetDeadline(deadline)
		watched := c.watch(ctx)
		if !reused && p.upgrade {
			err = c.upgrade(addr)
		}
		if err == nil {
			err = rt(c)
		}
		if err == nil {
			return c, watched, nil
		}
		if c.unwatch(watched) {
			err = ctx.Err()
		}
		c.close()
		var idle errNoReply
		if !reused || !errors.As(err, &idle) || ctx.Err() != nil || isTimeout(err) {
			return nil, false, err
		}
	}
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

// unwatch takes the exchange's context back from the watcher, if watch
// handed it over (watched), and reports whether it was cancelled, which
// closed the connection.
func (c *wireConn) unwatch(watched bool) bool { return watched && <-c.fired }

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

// drainCap bounds what drainClose reads from a reply nobody wants: a
// registration's answer or refusal is tens of bytes, and past a few KiB a
// fresh connection is cheaper than the read.
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

// writeGet writes a GET for u to host and flushes it: the request line,
// with u's path and query, the Host header and hdr's fields, nothing else
// (DESIGN.md §9, "The wire").  checkGet has vetted them.  A write that
// fails is errNoReply: no byte of a reply came back.
func (c *wireConn) writeGet(u *url.URL, host string, hdr http.Header) error {
	w := c.bw
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
	w.WriteString(host)
	w.WriteString("\r\n")
	for k, vs := range hdr {
		if k == "Host" {
			continue
		}
		for _, v := range vs {
			w.WriteString(k)
			w.WriteString(": ")
			w.WriteString(v)
			w.WriteString("\r\n")
		}
	}
	w.WriteString("\r\n")
	if err := w.Flush(); err != nil {
		return errNoReply{err}
	}
	return nil
}

// checkGet refuses a GET whose parts would not each stay one part on the
// wire, before a byte of it is written: a space or line break in the
// query would end the request line early, a line break in the host or a
// header value would start a header of its own, and a field name must be
// a token.
func checkGet(u *url.URL, host string, hdr http.Header) error {
	if strings.ContainsAny(u.RawQuery, " \r\n") {
		return errors.New("a space or line break in the query cannot go on a request line")
	}
	if strings.ContainsAny(host, "\r\n") {
		return fmt.Errorf("host %q holds a line break", host)
	}
	for k, vs := range hdr {
		if !isToken(k) {
			return fmt.Errorf("header name %q is not a token", k)
		}
		for _, v := range vs {
			if strings.ContainsAny(v, "\r\n") {
				return fmt.Errorf("header %s: value %q holds a line break", k, v)
			}
		}
	}
	return nil
}

// isToken reports an HTTP token (RFC 9110 §5.6.2), what a field name is.
func isToken(s string) bool {
	for i := 0; i < len(s); i++ {
		if !tokenByte(s[i]) {
			return false
		}
	}
	return s != ""
}

func tokenByte(c byte) bool {
	return c > ' ' && c < 0x7f && strings.IndexByte(`"(),/:;<=>?@[\]{}`, c) < 0
}

// replyHead is one reply's head as readReplyHead took it apart, by
// net/http's rules (ReadResponse) for the reply to a GET.  Every string
// in it is a substring of the head's one string (a canonicalised name or
// a folded value aside), which is the head's own only when readReplyHead
// was asked for that, and a view of the connection's buffer otherwise
// (forget); fields is the connection's, and its next reply reuses it.
type replyHead struct {
	proto, status string // "HTTP/1.1", "200 OK"
	code          int
	major, minor  int
	fields        []field // in the order they came; each name canonical unless it holds a space
	// The framing.  length is the body's: a declared length, 0 when the
	// status has none (1xx, 204, 304), and -1 for chunks (chunked) or a
	// body that ends with the connection.  close says the connection ends
	// with the reply, which a close-delimited body implies; connClose
	// that it was the Connection field that said so.
	length           int64
	chunked          bool
	close, connClose bool
}

type field struct{ name, value string }

// errHeadTooLarge is a reply whose heads, a final one and the 1xx before
// it, pass http.DefaultMaxHeaderBytes.
var errHeadTooLarge = errors.New("httpcache: reply head larger than http.DefaultMaxHeaderBytes")

// readReplyHead reads the head of the reply on c, skipping informational
// 1xx heads other than 101 as net/http's transport does, and parses it
// into c.head; the body is left in c.br.  With own, the head is one
// string of its own, which a caller may keep (RoundTrip's Response);
// without, its strings view the connection's buffer, so the head costs no
// allocation.  The origin GET and the frame upgrade read it that way:
// they read a status, a length and a field, and keep no string of it, and
// readLines drops the views before it writes the buffer again.  A
// connection that ends before the first byte is errNoReply.
func (c *wireConn) readReplyHead(own bool) error {
	if _, err := c.br.Peek(1); err != nil {
		return errNoReply{err}
	}
	budget := http.DefaultMaxHeaderBytes
	for {
		lines, err := c.readLines(true, budget)
		if err != nil {
			return err
		}
		head := unsafe.String(unsafe.SliceData(lines), len(lines))
		if own {
			head = string(lines)
		}
		if err := c.head.parse(head); err != nil {
			return err
		}
		if code := c.head.code; code < 100 || code > 199 || code == http.StatusSwitchingProtocols {
			return nil
		}
		budget -= len(lines)
	}
}

// readLines reads lines through c.br into the connection's buffer, up to
// and including the empty line ("\n" or "\r\n") that ends a head or a
// trailer, and returns them there, until its next read.  A head's first
// line, the status line, never ends it (lead).  More than budget bytes is
// errHeadTooLarge, and an end before the empty line io.ErrUnexpectedEOF.
// The head's strings, which may view the buffer, are dropped first.
func (c *wireConn) readLines(lead bool, budget int) ([]byte, error) {
	c.head.forget()
	buf := c.headBuf[:0]
	for start := 0; ; start = len(buf) {
		line, err := c.br.ReadSlice('\n')
		for err == bufio.ErrBufferFull { // a line longer than the reader's buffer
			if buf = append(buf, line...); len(buf) > budget {
				return nil, errHeadTooLarge
			}
			line, err = c.br.ReadSlice('\n')
		}
		if buf = append(buf, line...); len(buf) > budget {
			return nil, errHeadTooLarge
		}
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if lead && start == 0 {
			continue
		}
		if n := len(buf) - start; n == 1 || n == 2 && buf[start] == '\r' {
			if cap(buf) <= wireBuf {
				c.headBuf = buf
			}
			return buf, nil
		}
	}
}

// forget drops the head's strings, so that none of them outlives the
// bytes of the buffer it may view; its status code and framing stay, for
// reusable.
func (h *replyHead) forget() {
	h.proto, h.status = "", ""
	clear(h.fields)
	h.fields = h.fields[:0]
}

// nextLine cuts s's first line, without its "\n" or "\r\n", from the
// rest.  s ends with a line break (readLines).
func nextLine(s string) (line, rest string) {
	line, rest, _ = strings.Cut(s, "\n")
	return strings.TrimSuffix(line, "\r"), rest
}

// parse takes apart a head readLines read: the status line as net/http
// reads it, then the fields (parseFields), then the framing (frame).
func (h *replyHead) parse(head string) (err error) {
	line, rest := nextLine(head)
	proto, status, ok := strings.Cut(line, " ")
	status = strings.TrimLeft(status, " ")
	code, _, _ := strings.Cut(status, " ")
	if !ok || len(code) != 3 {
		return fmt.Errorf("httpcache: malformed reply status line %q", line)
	}
	if h.code, err = strconv.Atoi(code); err != nil || h.code < 0 {
		return fmt.Errorf("httpcache: malformed reply status code %q", code)
	}
	if h.major, h.minor, ok = http.ParseHTTPVersion(proto); !ok {
		return fmt.Errorf("httpcache: malformed reply version %q", proto)
	}
	h.proto, h.status = proto, status
	if h.fields, err = parseFields(rest, h.fields[:0]); err != nil {
		return err
	}
	return h.frame()
}

// frame sets the head's framing from its fields.  The rules are
// net/http's for the reply to a GET: a Transfer-Encoding other than one
// "chunked" is refused, and HTTP/1.0's ignored; Content-Length values
// that differ, or one that is not a decimal, are refused; 1xx, 204 and
// 304 carry no body, chunks override a length, and a body neither
// declares is read to the connection's end.  A Trailer naming a framing
// field is refused on a chunked reply.
func (h *replyHead) frame() error {
	var te, cl string
	var tes, cls int
	keepAlive := false
	h.connClose = false
	for _, f := range h.fields {
		switch f.name {
		case "Transfer-Encoding":
			if tes++; tes == 1 {
				te = f.value
			}
		case "Content-Length":
			if cls++; cls == 1 {
				cl = textproto.TrimString(f.value)
			} else if textproto.TrimString(f.value) != cl {
				return fmt.Errorf("httpcache: differing Content-Length values %q and %q", cl, f.value)
			}
		case "Connection":
			h.connClose = h.connClose || hasToken(f.value, "close")
			keepAlive = keepAlive || hasToken(f.value, "keep-alive")
		}
	}
	// HTTP/0.0 closes (shouldClose), yet its transfer coding is read as
	// HTTP/1.1's (readTransfer's default).
	h.close = h.major < 1 || h.connClose || h.major == 1 && h.minor == 0 && !keepAlive
	h.chunked = false
	if tes > 0 && (h.major > 1 || h.major == 1 && h.minor >= 1 || h.major == 0 && h.minor == 0) {
		if tes != 1 || !tokenEqual(te, "chunked") {
			return fmt.Errorf("httpcache: unsupported transfer encoding %q (%d fields)", te, tes)
		}
		h.chunked = true
	}
	h.length = -1
	if cls > 0 {
		n, err := strconv.ParseUint(cl, 10, 63)
		if err != nil {
			return fmt.Errorf("httpcache: bad Content-Length %q", cl)
		}
		h.length = int64(n)
	}
	switch {
	case h.code/100 == 1 || h.code == http.StatusNoContent || h.code == http.StatusNotModified:
		h.length = 0
	case h.chunked:
		h.length = -1
	case h.length < 0:
		h.close = true
	}
	if !h.chunked {
		return nil
	}
	return h.trailerKeys(func(k string) error {
		switch k {
		case "Transfer-Encoding", "Trailer", "Content-Length":
			return fmt.Errorf("httpcache: bad trailer key %q", k)
		}
		return nil
	})
}

// trailerKeys calls fn with each key the head's Trailer fields name,
// canonicalised, as net/http splits them (foreachHeaderElement), and
// returns fn's first error.
func (h *replyHead) trailerKeys(fn func(string) error) error {
	for _, f := range h.fields {
		if f.name != "Trailer" {
			continue
		}
		for v := f.value; v != ""; {
			var k string
			k, v, _ = strings.Cut(v, ",")
			if k = textproto.TrimString(k); k == "" {
				continue
			}
			if err := fn(textproto.CanonicalMIMEHeaderKey(k)); err != nil {
				return err
			}
		}
	}
	return nil
}

// trailer declares a chunked reply's trailer keys with no value yet, as
// net/http's Response.Trailer does before the body is read; nil when the
// head names none.
func (h *replyHead) trailer() http.Header {
	var t http.Header
	h.trailerKeys(func(k string) error {
		if t == nil {
			t = make(http.Header)
		}
		t[k] = nil
		return nil
	})
	return t
}

// parseFields appends to fields the fields of a head's or a trailer's
// lines, as textproto's ReadMIMEHeader takes them: a name is a token (a
// space is let through, and keeps the name as it came), canonicalised
// only when it is not already canonical; a line that starts with a space
// or a tab continues the one before, and the first may not; a value's
// bytes are visible ASCII, space, tab or obs-text, and its leading blanks
// are cut.  A folded value is joined in one buffer and made a string of
// its own once, so folding costs time in proportion to the head's size.
func parseFields(rest string, fields []field) ([]field, error) {
	var folded []byte
	line, rest := nextLine(rest)
	for line != "" {
		colon := strings.IndexByte(line, ':')
		if colon <= 0 || line[0] == ' ' || line[0] == '\t' {
			return nil, fmt.Errorf("httpcache: malformed reply field %q", line)
		}
		name, value := line[:colon], strings.TrimRight(line[colon+1:], " \t")
		if line, rest = nextLine(rest); line != "" && (line[0] == ' ' || line[0] == '\t') {
			folded = append(folded[:0], value...)
			for ; line != "" && (line[0] == ' ' || line[0] == '\t'); line, rest = nextLine(rest) {
				folded = append(append(folded, ' '), strings.Trim(line, " \t")...)
			}
			value = string(folded)
		}
		canon := true
		for i := 0; i < len(name); i++ {
			if c := name[i]; c == ' ' {
				canon = false
			} else if !tokenByte(c) {
				return nil, fmt.Errorf("httpcache: malformed reply field name %q", name)
			}
		}
		for i := 0; i < len(value); i++ {
			if c := value[i]; c < ' ' && c != '\t' || c == 0x7f {
				return nil, fmt.Errorf("httpcache: malformed reply field %s", name)
			}
		}
		if canon {
			name = textproto.CanonicalMIMEHeaderKey(name)
		}
		fields = append(fields, field{name, strings.TrimLeft(value, " \t")})
	}
	return fields, nil
}

// hasToken reports whether the comma-separated list v holds token, case
// aside (httpguts.HeaderValuesContainsToken, one value of it).
func hasToken(v, token string) bool {
	for v != "" {
		var t string
		t, v, _ = strings.Cut(v, ",")
		if tokenEqual(strings.Trim(t, " \t"), token) {
			return true
		}
	}
	return false
}

// tokenEqual compares s with the ASCII token t, case aside, as net/http
// does.  The length check keeps strings.EqualFold to ASCII: it would
// match the Kelvin sign (U+212A, three bytes) to the k of "chunked".
func tokenEqual(s, t string) bool { return len(s) == len(t) && strings.EqualFold(s, t) }

// get returns the value of the head's first field called name.
func (h *replyHead) get(name string) string {
	for _, f := range h.fields {
		if f.name == name {
			return f.value
		}
	}
	return ""
}

// header builds the head's fields into a Header, as net/http's
// ReadResponse leaves it: the framing fields it consumed are gone
// (Transfer-Encoding; Content-Length and Trailer when chunks carry the
// body; a Connection that closed a reply of HTTP/1.1 or later), repeated
// equal lengths are one, and Pragma: no-cache implies Cache-Control:
// no-cache.  One slice holds the first value of every name.
func (h *replyHead) header() http.Header {
	hdr := make(http.Header, len(h.fields))
	firsts := make([]string, len(h.fields))
	for i, f := range h.fields {
		switch f.name {
		case "Transfer-Encoding":
			continue
		case "Content-Length":
			if h.chunked && h.length < 0 {
				continue
			}
		case "Trailer":
			if h.chunked {
				continue
			}
		case "Connection":
			if h.connClose && h.major >= 1 && !(h.major == 1 && h.minor == 0) {
				continue
			}
		}
		if vs, ok := hdr[f.name]; ok {
			hdr[f.name] = append(vs, f.value)
		} else {
			firsts[i] = f.value
			hdr[f.name] = firsts[i : i+1 : i+1]
		}
	}
	if cl := hdr["Content-Length"]; len(cl) > 1 {
		hdr["Content-Length"] = []string{textproto.TrimString(cl[0])}
	}
	if p := hdr["Pragma"]; len(p) > 0 && p[0] == "no-cache" && hdr["Cache-Control"] == nil {
		hdr["Cache-Control"] = []string{"no-cache"}
	}
	return hdr
}

// readTrailer reads what follows a chunked body's last chunk as
// net/http's body does: an empty trailer's CRLF, or fields that a CRLF
// CRLF within the read buffer ends, which are checked and, when into is
// not nil, set in it, each name's values replacing any it had.  It
// returns io.EOF when the body ended cleanly.
func (c *wireConn) readTrailer(into *http.Header) error {
	if b, _ := c.br.Peek(2); string(b) == "\r\n" {
		c.br.Discard(2)
		return io.EOF
	} else if len(b) < 2 {
		return io.ErrUnexpectedEOF
	}
	for n := 4; ; n++ {
		b, err := c.br.Peek(n)
		if bytes.HasSuffix(b, []byte("\r\n\r\n")) {
			break
		}
		if err != nil {
			return errors.New("httpcache: a chunked reply's trailer is longer than the read buffer")
		}
	}
	trailer, err := c.readLines(false, wireBuf)
	if err != nil {
		return err
	}
	fields, err := parseFields(string(trailer), nil)
	if err != nil || into == nil {
		return cmp.Or(err, io.EOF)
	}
	got := make(http.Header, len(fields))
	for _, f := range fields {
		got[f.name] = append(got[f.name], f.value)
	}
	if *into == nil {
		*into = got
	} else {
		maps.Copy(*into, got)
	}
	return io.EOF
}

// reusable reports whether a connection may carry the next request once
// the body of the reply h heads has been read to its end: the reply was a
// final one (a 101 is the only 1xx readReplyHead returns), it did not ask
// to close, and nothing past it is buffered.
func reusable(h *replyHead, br *bufio.Reader) bool {
	return h.code >= 200 && !h.close && br.Buffered() == 0
}

// drainClose reads what is left of a reply, up to drainCap, and closes
// it.  net/http returns a connection to the keep-alive pool only when
// its reply was read to EOF; closing a short text unread discards the
// connection, and the next call to that daemon pays a TCP dial.  Register
// is the one call that returns before reading its reply to the end (the
// liveness sweep's probe is a frame, which readReply reads whole).
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
// pooled connection (frame.go), and the only place a per-hop timeout is
// chosen: peerTimeout(), or parent's deadline if that comes first
// (connPool.send).  A hop made for a requester passes the
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
	rep, err := p.hops.exchange(parent, p.peerTimeout(), to.addr, q, body, traceID)
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
	p.origins.CloseIdleConnections()
}
