package httpcache

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"webcache/internal/pastry"
)

// This file is the member-to-member wire (DESIGN.md §9, "The wire"): the
// hops Proxy.hop makes — /object, /store, /peer-lookup, /digest — travel
// as length-prefixed frames over pooled TCP connections instead of as
// net/http exchanges.  A connection starts as an HTTP/1.1 Upgrade on
// framePath, so a daemon keeps one address, and each frame is then
// dispatched to the server's root handler: the handlers, the handler
// wrappers (chaos faults, bench spans) and the span names are the ones a
// plain HTTP request meets.
//
// A request frame is an 8-byte head, then the path and query, the trace
// id and the body:
//
//	0     method: 'G' (GET) or 'P' (POST)
//	1     trace id length
//	2–3   path-and-query length, big-endian
//	4–7   body length, big-endian
//
// A reply frame is an 8-byte head, then the X-Served-By value, the
// X-Cache-Free value and the body:
//
//	0–1   status, big-endian
//	2     X-Served-By length
//	3     X-Cache-Free length
//	4–7   body length, big-endian
//
// Every body declares its length, and a body that ends short of it is an
// error, never a short slice; readBody reads it within the trust bound.
// The client end's connections are a connPool's (transport.go), which
// upgrades a fresh one before its first frame (connPool.send).

// framePath is the route a daemon upgrades to frames on, and
// FrameProtocol the Upgrade token both ends name.  A handler meets a
// framed request with FrameProtocol as its Proto.
const (
	framePath     = "/frames"
	FrameProtocol = "webcache-frame/1"
)

const (
	frameHead = 8
	// maxPathQuery bounds a request's path and query, which the server
	// peeks out of its read buffer whole; a real one is under 100 bytes.
	maxPathQuery = 4 << 10
)

var (
	errFrame       = errors.New("httpcache: malformed frame")
	errFrameLength = errors.New("httpcache: frame body longer than its declaration")
)

// The routes a hop names an object on, by its key.
const (
	routeObject     = "/object"
	routeStore      = "/store"
	routePeerLookup = "/peer-lookup"
)

// request is what a hop asks: a route and the query it takes, rendered
// straight into the frame (appendRequest), so no path string is built
// for it.  A route outside the three keyed ones is sent as it is, query
// and all.
type request struct {
	route string
	key   pastry.ID // ?key=, on routeObject, routePeerLookup and routeStore
	// A routeStore's &cost= and, for a trial store, &ifFree=1.
	cost   float64
	ifFree bool
}

// appendPathQuery renders q's path and query.
func (q *request) appendPathQuery(b []byte) []byte {
	b = append(b, q.route...)
	switch q.route {
	case routeObject, routePeerLookup, routeStore:
		b = q.key.AppendHex(append(b, "?key="...))
	}
	if q.route == routeStore {
		b = strconv.AppendFloat(append(b, "&cost="...), q.cost, 'g', -1, 64)
		if q.ifFree {
			b = append(b, "&ifFree=1"...)
		}
	}
	return b
}

// appendRequest encodes a request frame's head, path and trace id, a
// POST when post is set and a GET otherwise; the body follows it on the
// wire.
func appendRequest(b []byte, q *request, post bool, traceID string, bodyLen int) ([]byte, error) {
	start := len(b)
	m := byte('G')
	if post {
		m = 'P'
	}
	b = append(b, m, byte(len(traceID)), 0, 0)
	b = binary.BigEndian.AppendUint32(b, uint32(bodyLen))
	b = q.appendPathQuery(b)
	pathQuery := b[start+frameHead:]
	if len(pathQuery) == 0 || pathQuery[0] != '/' || len(pathQuery) > maxPathQuery ||
		len(traceID) > math.MaxUint8 || bodyLen > maxBody {
		return b[:start], errFrame
	}
	binary.BigEndian.PutUint16(b[start+2:], uint16(len(pathQuery)))
	return append(b, traceID...), nil
}

// frameRequest is a decoded request head: its body is still on the wire.
type frameRequest struct {
	method, pathQuery, traceID string
	bodyLen                    int64
}

// readRequest decodes one request frame's head, path and trace id.  A
// clean end of the connection before the first byte is io.EOF.
func readRequest(br *bufio.Reader) (frameRequest, error) {
	h, err := br.Peek(frameHead)
	if err != nil {
		if len(h) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return frameRequest{}, err
	}
	var q frameRequest
	switch h[0] {
	case 'G':
		q.method = http.MethodGet
	case 'P':
		q.method = http.MethodPost
	default:
		return frameRequest{}, errFrame
	}
	traceLen, pathLen := int(h[1]), int(binary.BigEndian.Uint16(h[2:]))
	q.bodyLen = int64(binary.BigEndian.Uint32(h[4:]))
	if pathLen == 0 || pathLen > maxPathQuery || q.bodyLen > maxBody {
		return frameRequest{}, errFrame
	}
	br.Discard(frameHead)
	meta, err := br.Peek(pathLen + traceLen)
	if err != nil {
		return frameRequest{}, io.ErrUnexpectedEOF
	}
	if meta[0] != '/' {
		return frameRequest{}, errFrame
	}
	s := string(meta)
	q.pathQuery, q.traceID = s[:pathLen], s[pathLen:]
	br.Discard(len(meta))
	return q, nil
}

// appendReplyHead encodes a reply frame's head and its two header values;
// the body follows it on the wire.
func appendReplyHead(b []byte, status int, servedBy, free string, bodyLen int64) ([]byte, error) {
	if status < 100 || status > 999 || len(servedBy) > math.MaxUint8 || len(free) > math.MaxUint8 ||
		bodyLen < 0 || bodyLen > math.MaxUint32 {
		return b, errFrame
	}
	b = binary.BigEndian.AppendUint16(b, uint16(status))
	b = append(b, byte(len(servedBy)), byte(len(free)))
	b = binary.BigEndian.AppendUint32(b, uint32(bodyLen))
	b = append(b, servedBy...)
	return append(b, free...), nil
}

// errNoReply marks an exchange that read no byte of its reply: the far
// end closed the connection before answering.
type errNoReply struct{ err error }

func (e errNoReply) Error() string { return "httpcache: no reply: " + e.err.Error() }
func (e errNoReply) Unwrap() error { return e.err }

// readReply decodes one reply frame.  The body is read whole when the
// status is 200 and discarded otherwise, as net/http's callers drained a
// refusal's text.
func readReply(br *bufio.Reader) (reply, error) {
	h, err := br.Peek(frameHead)
	if err != nil {
		if len(h) == 0 {
			return reply{}, errNoReply{err}
		}
		return reply{}, io.ErrUnexpectedEOF
	}
	rep := reply{status: int(binary.BigEndian.Uint16(h)), free: -1}
	servedLen, freeLen := int(h[2]), int(h[3])
	n := int64(binary.BigEndian.Uint32(h[4:]))
	if rep.status < 100 || rep.status > 999 {
		return reply{}, errFrame
	}
	br.Discard(frameHead)
	meta, err := br.Peek(servedLen + freeLen)
	if err != nil {
		return reply{}, io.ErrUnexpectedEOF
	}
	if v, ok := servedBy[string(meta[:servedLen])]; ok {
		rep.servedBy = v[0]
	} else {
		rep.servedBy = string(meta[:servedLen])
	}
	rep.free = parseDecimal(meta[servedLen:])
	br.Discard(len(meta))
	if rep.status != http.StatusOK {
		if _, err := br.Discard(int(n)); err != nil {
			return reply{}, io.ErrUnexpectedEOF
		}
		return rep, nil
	}
	if rep.body, err = readBody(br, n); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return reply{}, err
	}
	return rep, nil
}

// parseDecimal reads an X-Cache-Free or Content-Length value: a decimal
// byte count, or -1 when the field is empty or is not one.
func parseDecimal[T string | []byte](b T) int64 {
	if len(b) == 0 || len(b) > 18 {
		return -1
	}
	var v int64
	for i := 0; i < len(b); i++ {
		if b[i] < '0' || b[i] > '9' {
			return -1
		}
		v = 10*v + int64(b[i]-'0')
	}
	return v
}

// exchange sends one request frame to addr and reads its reply, by the
// earlier of timeout from now and ctx's deadline (connPool.send).  A
// cancellable ctx closes the connection when it is cancelled, through the
// connection's watcher; a context.Background caller hands it nothing.  A
// non-nil body is POSTed.  The connection goes back to the pool once the
// reply is in, unless ctx was cancelled as it came.
func (p *connPool) exchange(ctx context.Context, timeout time.Duration, addr string, q request, body []byte, traceID string) (reply, error) {
	var rep reply
	c, watched, err := p.send(ctx, timeout, addr, func(c *wireConn) (err error) {
		rep, err = c.roundTrip(&q, body, traceID)
		return err
	})
	if err != nil {
		return reply{}, err
	}
	if c.unwatch(watched) {
		c.close()
		return reply{}, ctx.Err()
	}
	p.put(addr, c)
	return rep, nil
}

func (c *wireConn) roundTrip(q *request, body []byte, traceID string) (reply, error) {
	head, err := appendRequest(c.bw.AvailableBuffer(), q, body != nil, traceID, len(body))
	if err != nil {
		return reply{}, err
	}
	c.bw.Write(head) // a write error sticks, and Flush returns it
	c.bw.Write(body)
	if err := c.bw.Flush(); err != nil {
		return reply{}, errNoReply{err}
	}
	return readReply(c.br)
}

// upgrade asks the far end to switch the connection to frames.
func (c *wireConn) upgrade(host string) error {
	fmt.Fprintf(c.bw, "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", framePath, host, FrameProtocol)
	if err := c.bw.Flush(); err != nil {
		return err
	}
	if err := c.readReplyHead(false); err != nil {
		return err
	}
	if c.head.code != http.StatusSwitchingProtocols || c.head.get("Upgrade") != FrameProtocol {
		return fmt.Errorf("httpcache: %s answered the frame upgrade with %s", host, c.head.status)
	}
	return nil
}

// isTimeout reports a connection deadline that ran out.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// frameServer is the server end: it upgrades connections on framePath and
// serves their frames, and it ends them when the daemon stops — which an
// http.Server does not do for a connection it handed over (Hijack).  The
// first upgrade through an http.Server registers drain as its shutdown
// hook, so Shutdown ends idle frame connections as it ends its own, and
// each busy one after its reply.
type frameServer struct {
	mu       sync.Mutex
	conns    map[*serverConn]struct{}
	hooked   map[*http.Server]bool
	draining bool
	loops    sync.WaitGroup
}

// serverConn is one upgraded connection as its server holds it.  ctx is
// every frame's request context: it is cancelled when the connection
// ends, the caller hanging up included, as net/http cancels a request's.
type serverConn struct {
	*wireConn
	ctx    context.Context
	cancel context.CancelFunc
	busy   bool // a frame is being served (guarded by frameServer.mu)
	// watch hands the connection's reader to the watcher once a frame's
	// body has been read, and peeked brings it back when the next frame
	// starts or the connection ends.
	watch    chan struct{}
	peeked   chan error
	watching bool
	w        frameWriter
	in       inbound
}

// ServeHTTP upgrades the connection and serves frames on it until it
// ends, dispatching each to the server's root handler.
func (s *frameServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	srv, _ := r.Context().Value(http.ServerContextKey).(*http.Server)
	if srv == nil || r.Header.Get("Upgrade") != FrameProtocol {
		http.Error(w, "frames need an "+FrameProtocol+" upgrade", http.StatusBadRequest)
		return
	}
	root := srv.Handler
	if root == nil {
		root = http.DefaultServeMux
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if !s.hooked[srv] {
		if s.hooked == nil {
			s.hooked, s.conns = make(map[*http.Server]bool), make(map[*serverConn]struct{})
		}
		s.hooked[srv] = true
		srv.RegisterOnShutdown(s.drain)
	}
	s.loops.Add(1)
	s.mu.Unlock()
	defer s.loops.Done()

	raw, rw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if rw.Reader.Buffered() > 0 { // a frame before the switch: not a frame client
		raw.Close()
		return
	}
	c := &serverConn{wireConn: newWireConn(raw), watch: make(chan struct{}), peeked: make(chan error)}
	c.ctx, c.cancel = context.WithCancel(r.Context())
	c.w.c = c
	c.w.header = make(http.Header)
	c.in.base = *(&http.Request{
		Proto: FrameProtocol, ProtoMajor: 1, ProtoMinor: 1, RemoteAddr: r.RemoteAddr,
	}).WithContext(c.ctx)
	c.in.header = make(http.Header, 1)
	c.in.body.c = c
	s.mu.Lock()
	if s.draining { // it began while the upgrade was under way
		s.mu.Unlock()
		c.cancel()
		raw.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.cancel()
		raw.Close()
		if c.watching {
			<-c.peeked
		}
		close(c.watch)
	}()
	go c.watcher()

	fmt.Fprintf(c.bw, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", FrameProtocol)
	if c.bw.Flush() != nil {
		return
	}
	for {
		if c.watching {
			c.watching = false
			if <-c.peeked != nil {
				return
			}
		}
		q, err := readRequest(c.br)
		if err != nil || !s.begin(c) {
			return
		}
		if !c.serve(root, q) || !s.end(c) {
			return
		}
	}
}

// begin marks c busy, unless the server is draining.
func (s *frameServer) begin(c *serverConn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.busy = !s.draining
	return c.busy
}

// end marks c idle after a reply, unless the server is draining.
func (s *frameServer) end(c *serverConn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.busy = false
	return !s.draining
}

// drain ends the idle connections now and each busy one after its reply,
// and refuses new upgrades.
func (s *frameServer) drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
	for c := range s.conns {
		if !c.busy {
			c.Close()
		}
	}
}

// Close drains the connections and waits until the last frame being
// served has been answered.
func (s *frameServer) Close() {
	s.drain()
	s.loops.Wait()
}

// watcher reads ahead for the connection while a frame is served: the
// caller sends nothing more until it has the reply, so a read that ends
// is the caller hanging up, and the frame's context is cancelled.
func (c *serverConn) watcher() {
	for range c.watch {
		_, err := c.br.Peek(1)
		if err != nil {
			c.cancel()
		}
		c.peeked <- err
	}
}

func (c *serverConn) startWatch() {
	c.watching = true
	c.watch <- struct{}{}
}

// inbound is what a frame's request is built from.  A connection keeps
// one and rebuilds it for every frame, so a handler must not keep r, or
// anything it reaches — its URL, header or body — once it has returned
// (every handler and wrapper of the federation reads r only while it
// serves).  Strings taken from r are the handler's to keep.
type inbound struct {
	base   http.Request // what every frame's request starts as: its context, protocol and remote address
	req    http.Request
	url    url.URL
	header http.Header
	trace  [1]string
	body   frameBody
}

// serve dispatches one frame and writes its reply; false ends the
// connection.
func (c *serverConn) serve(root http.Handler, q frameRequest) bool {
	in := &c.in
	in.url = url.URL{}
	in.url.Path, in.url.RawQuery, _ = strings.Cut(q.pathQuery, "?")
	clear(in.header)
	if q.traceID != "" {
		in.trace[0] = q.traceID
		in.header[TraceHeader] = in.trace[:]
	}
	in.body.left = q.bodyLen
	in.req = in.base // every field a handler or the mux set is reset
	req := &in.req
	req.Method, req.URL, req.RequestURI = q.method, &in.url, q.pathQuery
	req.Header, req.Body, req.ContentLength = in.header, http.NoBody, q.bodyLen
	if q.bodyLen > 0 {
		req.Body = &in.body
	} else {
		c.startWatch()
	}
	c.w.reset()
	root.ServeHTTP(&c.w, req)
	err := c.w.finish()
	if ferr := c.bw.Flush(); err == nil {
		err = ferr
	}
	if err == nil && !c.watching {
		_, err = c.br.Discard(int(in.body.left)) // what the handler left unread
	}
	in.body.left = 0
	return err == nil
}

// frameBody is a frame's request body, read straight off the connection.
// Once it has been read to its end the watcher takes the reader.
type frameBody struct {
	c    *serverConn
	left int64
}

func (b *frameBody) Read(p []byte) (int, error) {
	if b.left <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > b.left {
		p = p[:b.left]
	}
	n, err := b.c.br.Read(p)
	b.left -= int64(n)
	if b.left == 0 {
		b.c.startWatch()
	} else if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *frameBody) Close() error { return nil }

// frameWriter is the http.ResponseWriter a frame's handler writes to.  A
// reply whose handler declared its length (serve always does) streams;
// one that did not is held until the handler returns, then framed.
type frameWriter struct {
	c        *serverConn
	header   http.Header
	status   int
	started  bool
	declared int64
	written  int64
	held     []byte
}

func (w *frameWriter) reset() {
	clear(w.header)
	w.status, w.started, w.declared, w.written, w.held = 0, false, 0, 0, w.held[:0]
}

func (w *frameWriter) Header() http.Header { return w.header }

func (w *frameWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *frameWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if !w.started {
		n, ok := declaredLength(w.header)
		if !ok {
			w.held = append(w.held, p...)
			return len(p), nil
		}
		if err := w.start(n); err != nil {
			return 0, err
		}
	}
	if w.written+int64(len(p)) > w.declared {
		return 0, errFrameLength
	}
	n, err := w.c.bw.Write(p)
	w.written += int64(n)
	return n, err
}

// start writes the reply head, declaring n body bytes.
func (w *frameWriter) start(n int64) error {
	w.started, w.declared = true, n
	head, err := appendReplyHead(w.c.bw.AvailableBuffer(), w.status, first(w.header[ServedByHeader]), first(w.header[FreeHeader]), n)
	if err != nil {
		return err
	}
	_, err = w.c.bw.Write(head)
	return err
}

// finish frames what the handler left unsent.  A reply that ends short
// of its declared length is an error: the connection is closed on it, and
// the caller reads a short body, as from net/http.
func (w *frameWriter) finish() error {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if !w.started {
		n, ok := declaredLength(w.header)
		if !ok || n < int64(len(w.held)) {
			n = int64(len(w.held))
		}
		if err := w.start(n); err != nil {
			return err
		}
		m, err := w.c.bw.Write(w.held)
		w.written = int64(m)
		if err != nil {
			return err
		}
	}
	if w.written != w.declared {
		return io.ErrShortWrite
	}
	return nil
}

func first(v []string) string {
	if len(v) == 0 {
		return ""
	}
	return v[0]
}

// declaredLength reads a handler's Content-Length.
func declaredLength(h http.Header) (int64, bool) {
	v := h["Content-Length"]
	if len(v) == 0 {
		return 0, false
	}
	n := parseDecimal(v[0])
	return n, n >= 0
}
