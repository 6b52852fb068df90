package httpcache

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webcache/internal/store"
	"webcache/internal/wiretest"
)

// sizedOrigin serves /<anything> with a body of exactly size bytes and,
// like the origins of the other tests, declares nothing: past 2 KiB its
// replies are chunked, so every proxy below reads its origin through the
// undeclared-length fallback and still has to declare what it serves.
func sizedOrigin(t *testing.T, size int) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(sizedBody(r.URL.Path, size))
	}))
	t.Cleanup(srv.Close)
	return srv
}

func sizedBody(path string, size int) []byte {
	return bytes.Repeat([]byte(path+"|"), size/(len(path)+1)+1)[:size]
}

// framedGet GETs u and reports how the reply was framed.
func framedGet(t *testing.T, u string, hdr ...string) (resp *http.Response, body []byte) {
	t.Helper()
	req, err := http.NewRequest("GET", u, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if body, err = io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestBodyRepliesDeclareLength pins the wire (DESIGN.md §9): every reply
// that carries an object body says how long it is, at every size and from
// every path that writes one, and nothing about the serving-tier header
// changes with the size.  Against a serve that leaves the length to
// net/http every row of 2 049 bytes and up fails: the server fills a
// Content-Length in only for replies that fit its 2 KiB pre-chunk buffer.
func TestBodyRepliesDeclareLength(t *testing.T) {
	for _, size := range []int{512, 2049, 8 << 10, 1 << 20} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			origin := sizedOrigin(t, size)
			capacity := uint64(8 * size)

			// Two cooperating proxies, and one with client caches into which
			// /b has been destaged.
			roomy := deploy(t, 2, 0, capacity, capacity)
			p2p := deploy(t, 1, 3, capacity, capacity)
			fetchURL := func(base, path string) string { return pinned{base: base}.fetchURL(origin.URL + path) }
			key := func(path string) string { return keyOf(origin.URL + path).String() }

			cc := NewClientCacheOpts(Options{CapacityBytes: capacity})
			ccSrv := httptest.NewServer(wiretest.StrictFraming(t, cc.Handler()))
			t.Cleanup(ccSrv.Close)
			resp, err := http.Post(ccSrv.URL+"/store?key="+key("/direct")+"&cost=1", "application/octet-stream",
				bytes.NewReader(sizedBody("/direct", size)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()

			rows := []struct {
				name, url, path, tier string
				before                func()
			}{
				{name: "fetch origin", url: fetchURL(roomy.proxyS[0].URL, "/a"), path: "/a", tier: TierOrigin},
				{name: "fetch proxy", url: fetchURL(roomy.proxyS[0].URL, "/a"), path: "/a", tier: TierProxy},
				{name: "fetch remote proxy", url: fetchURL(roomy.proxyS[1].URL, "/a"), path: "/a", tier: TierRemoteProxy},
				{name: "peer-lookup from the proxy cache", url: roomy.proxyS[0].URL + "/peer-lookup?key=" + key("/a"),
					path: "/a", tier: TierPeerProxy},
				{name: "fetch client cache", url: fetchURL(p2p.proxyS[0].URL, "/b"), path: "/b", tier: TierClientCache,
					before: func() {
						p2p.proxies[0].passDown(store.Object{HexKey: key("/b"), Body: sizedBody("/b", size), Cost: 1})
					}},
				{name: "peer-lookup relayed from a client cache", url: p2p.proxyS[0].URL + "/peer-lookup?key=" + key("/b"),
					path: "/b", tier: TierPeerP2P},
				{name: "client-cache /object", url: ccSrv.URL + "/object?key=" + key("/direct"),
					path: "/direct", tier: TierClientCache},
			}
			for _, row := range rows {
				if row.before != nil {
					row.before()
				}
				resp, body := framedGet(t, row.url)
				if resp.StatusCode != http.StatusOK || !bytes.Equal(body, sizedBody(row.path, size)) {
					t.Fatalf("%s: status %d, %d body bytes, want 200 and the %d-byte object", row.name, resp.StatusCode, len(body), size)
				}
				if got := resp.Header.Get(ServedByHeader); got != row.tier {
					t.Errorf("%s: %s = %q, want %q", row.name, ServedByHeader, got, row.tier)
				}
				if got := resp.Header.Get("Content-Length"); got != fmt.Sprint(size) || len(resp.TransferEncoding) != 0 {
					t.Errorf("%s: Content-Length %q, Transfer-Encoding %v, want %d declared and no transfer coding",
						row.name, got, resp.TransferEncoding, size)
				}
				if got := resp.Header.Get("Content-Type"); got != "application/octet-stream" {
					t.Errorf("%s: Content-Type %q, want the declared application/octet-stream, not a sniffed one", row.name, got)
				}
			}
		})
	}
}

// countingConn counts the write calls a connection takes and the read
// calls that bring bytes back, which on a socket are syscalls.
type countingConn struct {
	net.Conn
	writes, reads *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

// A declared length is the far end's word, not a fact.  An origin that
// declares a terabyte and sends ten bytes is the existing short-body 502,
// and costs no more memory than bodyTrust; an origin that declares nothing
// (chunked) is still served, whole, and cached.
func TestDeclaredLengthUntrusted(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/liar":
			w.Header().Set("Content-Length", "1099511627776")
			w.Write([]byte("only-ten-b"))
		case "/chunked":
			for i := 0; i < 4; i++ {
				w.Write(sizedBody("/chunked", 8<<10)[i*2048 : (i+1)*2048])
				w.(http.Flusher).Flush()
			}
		}
	}))
	t.Cleanup(origin.Close)
	f := pin(t, newProxy(t, traced(Options{CapacityBytes: 1 << 20})), "")

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, msg := framedGet(t, f.fetchURL(origin.URL+"/liar"))
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusBadGateway || !strings.Contains(string(msg), "reading origin body") {
		t.Fatalf("lying origin: status %d %q, want the short-body 502", resp.StatusCode, msg)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*bodyTrust {
		t.Errorf("a declared terabyte cost %d bytes of allocation, want no more than bodyTrust (%d) and change", got, bodyTrust)
	}
	if n := f.px.Store().Len(); n != 0 {
		t.Errorf("proxy cached %d objects from the lying origin", n)
	}

	for _, tier := range []string{TierOrigin, TierProxy} {
		resp, body := framedGet(t, f.fetchURL(origin.URL+"/chunked"))
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, sizedBody("/chunked", 8<<10)) ||
			resp.Header.Get(ServedByHeader) != tier {
			t.Fatalf("chunked origin: status %d, %d bytes by %q, want 200 and all 8 KiB by %q",
				resp.StatusCode, len(body), resp.Header.Get(ServedByHeader), tier)
		}
	}

	// A frame's declaration is as untrusted: a member that declares 4 GiB
	// and sends ten bytes costs the hop no more memory than bodyTrust, and
	// the hop is a connection failure.
	liar := newFarEnd(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "4294967295")
		w.Write([]byte("only-ten-b"))
	}))
	short := f.px.ring.add(liar.addr)
	runtime.ReadMemStats(&before)
	_, err := f.px.hop(context.Background(), short, request{route: "/object?key=x"}, nil, "")
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a body ten bytes into a 4 GiB declaration came back whole")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*bodyTrust {
		t.Errorf("a declared 4 GiB cost %d bytes of allocation, want no more than bodyTrust (%d) and change", got, bodyTrust)
	}
	if f.px.ring.size() != 0 {
		t.Error("the short member is still on the ring")
	}
}

// readBody itself, on both sides of bodyTrust: a declaration honoured is
// one slice of exactly that length, one cut short anywhere is an error.
func TestReadBody(t *testing.T) {
	for _, tc := range []struct{ declared, available int64 }{
		{0, 0},
		{0, 10}, // the rest is the next message's
		{8 << 10, 8 << 10},
		{8 << 10, 4 << 10},
		{8 << 10, 0},
		{bodyTrust, bodyTrust},
		{3*bodyTrust + 17, 3*bodyTrust + 17},
		{3*bodyTrust + 17, bodyTrust}, // ends where the trusted part does
		{3*bodyTrust + 17, 3 * bodyTrust},
		{-1, 5000},
	} {
		src := bytes.Repeat([]byte("0123456789abcdef"), int(tc.available/16)+1)[:tc.available]
		body, err := readBody(bytes.NewReader(src), tc.declared)
		if short := tc.declared > tc.available; short {
			if err == nil || body != nil {
				t.Errorf("declared %d, %d available: got %d bytes, err %v, want an error and no body",
					tc.declared, tc.available, len(body), err)
			}
			continue
		}
		want := src
		if tc.declared >= 0 {
			want = src[:tc.declared]
		}
		if err != nil || !bytes.Equal(body, want) || tc.declared >= 0 && cap(body) != len(body) {
			t.Errorf("declared %d, %d available: got %d bytes (cap %d), err %v, want the first %d in a slice of that size",
				tc.declared, tc.available, len(body), cap(body), err, len(want))
		}
	}
}

// TestOriginWire pins what the origin GET adds to the Transport's wire,
// whose reply framings and pooled states TestTransportWire pins: any
// status but 200 is a 502 that names it, and a short body one that names
// the read, each closing its connection; an empty 200 keeps it.  A
// connection the origin closed while it sat idle costs a second dial, not
// a failed request or a second fetch; and an https origin is dialled
// through TLS with the system's roots, so a certificate they do not vouch
// for is a 502 that names it.
func TestOriginWire(t *testing.T) {
	const size = 8 << 10
	want := sizedBody("/object", size)
	var dials, gets atomic.Int64
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gets.Add(1)
		switch r.URL.Path {
		case "/declared":
			w.Header().Set("Content-Length", strconv.Itoa(size))
			w.Write(want)
		case "/empty":
			w.Header().Set("Content-Length", "0")
		case "/short":
			w.Header().Set("Content-Length", strconv.Itoa(size))
			w.Write(want[:10]) // net/http closes the connection on the shortfall
		case "/moved":
			http.Redirect(w, r, "/declared", http.StatusMovedPermanently)
		}
	})
	origin := httptest.NewUnstartedServer(handler)
	origin.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	origin.Start()
	t.Cleanup(origin.Close)
	px := newProxy(t, Options{CapacityBytes: 1 << 20})
	t.Cleanup(px.CloseIdleConnections)
	f := pin(t, px, "")
	pooled := func() int {
		pool := px.origins.pool
		pool.mu.Lock()
		defer pool.mu.Unlock()
		return len(pool.idle[strings.TrimPrefix(origin.URL, "http://")])
	}
	get := func(path string, status int, text string, pool int) {
		t.Helper()
		resp, body := framedGet(t, f.fetchURL(origin.URL+path))
		wantBody := want
		if strings.HasPrefix(path, "/empty") {
			wantBody = nil
		}
		switch {
		case resp.StatusCode != status:
			t.Errorf("%s: status %d (%.80q), want %d", path, resp.StatusCode, body, status)
		case status == http.StatusOK && (!bytes.Equal(body, wantBody) || resp.Header.Get(ServedByHeader) != TierOrigin):
			t.Errorf("%s: %d bytes served by %q, want the origin's %d", path, len(body), resp.Header.Get(ServedByHeader), len(wantBody))
		case status != http.StatusOK && !strings.Contains(string(body), text):
			t.Errorf("%s: 502 text %q does not name %q", path, body, text)
		}
		if got := pooled(); got != pool {
			t.Errorf("%s: %d idle origin connections after the GET, want %d", path, got, pool)
		}
	}

	for _, tc := range []struct {
		path   string
		status int
		text   string // what a 502 names
		pooled int
	}{
		{"/moved", http.StatusBadGateway, "origin status 301", 0},
		{"/short", http.StatusBadGateway, "reading origin body", 0},
		{"/empty", http.StatusOK, "", 1},
	} {
		px.CloseIdleConnections()
		get(tc.path+"?case=table", tc.status, tc.text, tc.pooled)
	}

	px.CloseIdleConnections()
	get("/declared?case=idle-1", http.StatusOK, "", 1)
	origin.CloseClientConnections()
	d, g, fetched := dials.Load(), gets.Load(), px.snapshotStats().OriginFetch
	get("/declared?case=idle-2", http.StatusOK, "", 1)
	if d, g, fetched := dials.Load()-d, gets.Load()-g, px.snapshotStats().OriginFetch-fetched; d != 1 || g != 1 || fetched != 1 {
		t.Errorf("a GET on a connection the origin had closed: %d dials, %d GETs at the origin, %d origin_fetches, want 1 of each", d, g, fetched)
	}

	untrusted := httptest.NewUnstartedServer(handler)
	untrusted.Config.ErrorLog = log.New(io.Discard, "", 0) // its side of the refused handshake
	untrusted.StartTLS()
	t.Cleanup(untrusted.Close)
	resp, msg := framedGet(t, f.fetchURL(untrusted.URL+"/declared"))
	if resp.StatusCode != http.StatusBadGateway || !strings.Contains(string(msg), "x509") {
		t.Errorf("an origin whose certificate the system does not trust: status %d %q, want a 502 naming the x509 error", resp.StatusCode, msg)
	}
}

// TestTransportWire pins the HTTP/1.1 wire (DESIGN.md §9) that the origin
// GET and the load generator share: what each kind of reply reads as,
// and whether its connection is pooled once the body is closed, under a
// Background and a cancellable context alike.  Only the request's own
// fields and Host go out.  A connection the server closed while it sat
// idle costs a second dial, not a failed request; a cancelled context or
// a deadline ends a body read that waits on the server, and closes the
// connection; a request the wire cannot carry is refused before a byte
// of it is written; an https server is dialled through TLS with the
// system's roots; and dropping the idle connections leaves no watcher
// running.
func TestTransportWire(t *testing.T) {
	const size = 8 << 10
	want := sizedBody("/object", size)
	var dials, gets atomic.Int64
	hijack := func(w http.ResponseWriter, reply string) {
		c, rw, err := http.NewResponseController(w).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		rw.WriteString(reply)
		rw.Flush()
		c.Close()
	}
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gets.Add(1)
		switch r.URL.Path {
		case "/declared":
			w.Header().Set("Content-Length", strconv.Itoa(size))
			w.Write(want)
		case "/chunked":
			for i := 0; i < size; i += 2048 {
				w.Write(want[i : i+2048])
				w.(http.Flusher).Flush()
			}
		case "/close":
			w.Header().Set("Connection", "close")
			w.Header().Set("Content-Length", strconv.Itoa(size))
			w.Write(want)
		case "/http10": // no length: the body ends with the connection
			hijack(w, "HTTP/1.0 200 OK\r\n\r\n"+string(want))
		case "/trailing": // bytes past the reply's end that nobody asked for
			hijack(w, "HTTP/1.1 200 OK\r\nContent-Length: "+strconv.Itoa(size)+"\r\n\r\n"+string(want)+"HTTP/1.1 200 OK\r\n")
		case "/short":
			w.Header().Set("Content-Length", strconv.Itoa(size))
			w.Write(want[:10]) // net/http closes the connection on the shortfall
		case "/headers":
			if len(r.Header) != 1 || r.Header.Get(TraceHeader) != "t-1" || r.Host != r.URL.Query().Get("host") {
				http.Error(w, fmt.Sprint(r.Host, r.Header), http.StatusBadRequest)
				return
			}
			w.Header().Set("Content-Length", strconv.Itoa(size))
			w.Write(want)
		case "/stall": // half the body, then nothing until the client leaves
			w.Header().Set("Content-Length", strconv.Itoa(size))
			w.Write(want[:size/2])
			w.(http.Flusher).Flush()
			<-r.Context().Done()
		}
	})
	srv := httptest.NewUnstartedServer(handler)
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	before := watchers()
	tr := NewTransport()
	t.Cleanup(tr.CloseIdleConnections)
	addr := strings.TrimPrefix(srv.URL, "http://")
	pooled := func() int {
		tr.pool.mu.Lock()
		defer tr.pool.mu.Unlock()
		return len(tr.pool.idle[addr])
	}
	request := func(ctx context.Context, path string) *http.Request {
		req, err := http.NewRequestWithContext(ctx, "GET", srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	get := func(req *http.Request) ([]byte, error) {
		resp, err := tr.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d", resp.StatusCode)
		}
		return io.ReadAll(resp.Body)
	}

	cancellable, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, ctx := range []context.Context{context.Background(), cancellable} {
		for _, tc := range []struct {
			path   string
			err    error
			pooled int
		}{
			{"/declared", nil, 1},
			{"/chunked", nil, 1},
			{"/close", nil, 0},
			{"/http10", nil, 0},
			{"/trailing", nil, 0},
			{"/short", io.ErrUnexpectedEOF, 0},
		} {
			tr.CloseIdleConnections()
			body, err := get(request(ctx, tc.path))
			switch {
			case !errors.Is(err, tc.err):
				t.Errorf("%s: error %v, want %v", tc.path, err, tc.err)
			case err == nil && !bytes.Equal(body, want):
				t.Errorf("%s: read %d bytes, want the server's %d", tc.path, len(body), size)
			}
			if got := pooled(); got != tc.pooled {
				t.Errorf("%s: %d idle connections once the body was closed, want %d", tc.path, got, tc.pooled)
			}
		}
	}

	req := request(context.Background(), "/headers?host="+addr)
	req.Header.Set(TraceHeader, "t-1")
	if body, err := get(req); err != nil || !bytes.Equal(body, want) {
		t.Errorf("a request with one header field: %d bytes, %v; want the server to see that field and Host, nothing else", len(body), err)
	}

	tr.CloseIdleConnections()
	if _, err := get(request(context.Background(), "/declared")); err != nil {
		t.Fatal(err)
	}
	srv.CloseClientConnections()
	d, g := dials.Load(), gets.Load()
	if _, err := get(request(context.Background(), "/declared")); err != nil {
		t.Errorf("a GET on a connection the server had closed: %v", err)
	}
	if d, g := dials.Load()-d, gets.Load()-g; d != 1 || g != 1 || pooled() != 1 {
		t.Errorf("a GET on a connection the server had closed: %d dials, %d GETs at the server, %d pooled after, want 1 of each", d, g, pooled())
	}

	// A second Close of the same body, before its connection is taken
	// again, leaves the connection pooled and fit for the next GET.
	resp, err := tr.RoundTrip(request(cancellable, "/declared"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp.Body.Close()
	d = dials.Load()
	if body, err := get(request(cancellable, "/declared")); err != nil || !bytes.Equal(body, want) || dials.Load() != d || pooled() != 1 {
		t.Errorf("a GET after a body closed twice: %d bytes, %v, %d dials, %d pooled; want the body on the pooled connection", len(body), err, dials.Load()-d, pooled())
	}

	// Concurrent requests share the pool: each goroutine's connection is
	// pooled after its reply and taken again, so none dials twice.
	tr.CloseIdleConnections()
	d = dials.Load()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if body, err := get(request(cancellable, "/declared")); err != nil || !bytes.Equal(body, want) {
					t.Errorf("concurrent GET: %d bytes, %v", len(body), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if d := dials.Load() - d; d > workers {
		t.Errorf("%d goroutines dialled %d connections, want at most one each", workers, d)
	}

	// A body read that waits on the server ends when its context does,
	// and its connection is closed, not pooled.
	stalled := func(ctx context.Context, cancel context.CancelFunc) error {
		tr.CloseIdleConnections()
		resp, err := tr.RoundTrip(request(ctx, "/stall"))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.ReadFull(resp.Body, make([]byte, size/2)); err != nil {
			return err
		}
		if cancel != nil {
			cancel()
		}
		_, err = io.ReadAll(resp.Body)
		return err
	}
	ctx, cancelMid := context.WithCancel(context.Background())
	if err := stalled(ctx, cancelMid); !errors.Is(err, context.Canceled) || pooled() != 0 {
		t.Errorf("a context cancelled mid-body: error %v, %d pooled, want context.Canceled and none", err, pooled())
	}
	start := time.Now()
	ctx, cancelLate := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancelLate()
	if err := stalled(ctx, nil); !errors.Is(err, context.DeadlineExceeded) && !isTimeout(err) || pooled() != 0 {
		t.Errorf("a deadline that expired mid-body: error %v, %d pooled, want the deadline's and none", err, pooled())
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("a 100 ms deadline ended the exchange after %v", took)
	}

	// Refusals: nothing is dialled, nothing written, and the idle
	// connection left by the GET before them is still idle.
	if _, err := get(request(context.Background(), "/declared")); err != nil {
		t.Fatal(err)
	}
	d, g = dials.Load(), gets.Load()
	bad := request(context.Background(), "/declared")
	bad.Header["X-Split"] = []string{"a\r\nX-Injected: 1"}
	if _, err := tr.RoundTrip(bad); err == nil {
		t.Error("a header value with CR LF in it was sent")
	}
	withBody := &closeRecorder{Reader: strings.NewReader("x")}
	post, err := http.NewRequest("GET", srv.URL+"/declared", withBody)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.RoundTrip(post); err == nil || !withBody.closed {
		t.Errorf("a request with a body: error %v, body closed %v; want it refused and its body closed", err, withBody.closed)
	}
	if d, g := dials.Load()-d, gets.Load()-g; d != 0 || g != 0 || pooled() != 1 {
		t.Errorf("refused requests: %d dials, %d GETs at the server, %d pooled, want 0, 0 and 1", d, g, pooled())
	}

	untrusted := httptest.NewUnstartedServer(handler)
	untrusted.Config.ErrorLog = log.New(io.Discard, "", 0) // its side of the refused handshake
	untrusted.StartTLS()
	t.Cleanup(untrusted.Close)
	https, err := http.NewRequest("GET", untrusted.URL+"/declared", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.RoundTrip(https); err == nil || !strings.Contains(err.Error(), "x509") {
		t.Errorf("a server whose certificate the system does not trust: error %v, want the x509 error", err)
	}

	tr.CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); watchers() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d connection watchers left after CloseIdleConnections", watchers()-before)
		}
	}
}

// closeRecorder is a request body that records its Close.
type closeRecorder struct {
	io.Reader
	closed bool
}

func (c *closeRecorder) Close() error {
	c.closed = true
	return nil
}

// watchers counts the goroutines running a client connection's watcher.
func watchers() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*wireConn).watchCancel(")
}

// replayConn is an origin that answers whatever it is sent with the
// bytes of src, then ends.  Only the methods a Transport exchange calls
// are defined.
type replayConn struct {
	net.Conn
	src *bytes.Reader
}

func (c replayConn) Read(p []byte) (int, error)  { return c.src.Read(p) }
func (c replayConn) Write(p []byte) (int, error) { return len(p), nil }
func (c replayConn) Close() error                { return nil }
func (c replayConn) SetDeadline(time.Time) error { return nil }

// referenceReply is the oracle for the Transport's reader: the reply
// net/http reads from data, its informational 1xx heads other than 101
// skipped as net/http's transport skips them, through a reader the size
// of a pooled connection's, on whose size a chunk line's limit and a
// trailer's depend.
func referenceReply(data []byte) (*http.Response, error) {
	br := bufio.NewReaderSize(bytes.NewReader(data), wireBuf)
	for {
		resp, err := http.ReadResponse(br, nil)
		if err != nil || resp.StatusCode < 100 || resp.StatusCode > 199 || resp.StatusCode == http.StatusSwitchingProtocols {
			return resp, err
		}
	}
}

// FuzzOriginReply feeds the origin GET whatever an origin may send, on a
// connection that replays the fuzz bytes.  Whatever it gets, originFetch
// does not panic; a body it returns is the one net/http reads from the
// same bytes, never short of a declared length; no declaration makes it
// allocate past bodyTrust before the bytes are there; and it pools the
// connection only at the end of a complete reply, with nothing after it
// buffered: net/http reads the same reply, to its end, from exactly the
// bytes it consumed.
func FuzzOriginReply(f *testing.F) {
	for _, seed := range []string{
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 5\r\n\r\nhello",
		"HTTP/1.0 200 OK\r\n\r\nhello",
		"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 5\r\n\r\nhello",
		"HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\nonly-ten-b",
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhelloHTTP/1.1 200 OK\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhel",
		"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 301 Moved Permanently\r\nLocation: /x\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 100 Continue\r\n\r\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	px, err := NewProxyOpts(Options{CapacityBytes: 1 << 20})
	if err != nil {
		f.Fatal(err)
	}
	const origin, addr = "http://origin.test/object", "origin.test:80"
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		px.origins.pool.dial = func(context.Context, string) (net.Conn, error) { return replayConn{src: src}, nil }
		defer px.CloseIdleConnections()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		body, err := px.originFetch(origin)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 2*bodyTrust+4*uint64(len(data)) {
			t.Errorf("the origin GET allocated %d bytes of a %d-byte reply, want no more than bodyTrust (%d) and change", got, len(data), bodyTrust)
		}
		if err != nil && body != nil {
			t.Errorf("error %v came back with a %d-byte body", err, len(body))
		}
		if err == nil {
			ref, rerr := referenceReply(data)
			if rerr != nil {
				t.Fatalf("read a reply net/http refuses: %v", rerr)
			}
			refBody, rerr := io.ReadAll(ref.Body)
			if rerr != nil || ref.StatusCode != http.StatusOK || !bytes.Equal(body, refBody) {
				t.Fatalf("read %d body bytes where net/http reads status %d, %d bytes, %v", len(body), ref.StatusCode, len(refBody), rerr)
			}
			if ref.ContentLength >= 0 && int64(len(body)) != ref.ContentLength {
				t.Fatalf("read %d body bytes of a reply that declared %d", len(body), ref.ContentLength)
			}
		}
		idle := px.origins.pool.idle[addr]
		if len(idle) == 0 {
			return
		}
		if n := idle[0].br.Buffered(); n > 0 {
			t.Fatalf("pooled the connection with %d bytes nobody asked for buffered", n)
		}
		consumed := data[:len(data)-src.Len()]
		end, rerr := referenceReply(consumed)
		if rerr != nil {
			t.Fatalf("pooled the connection after %d bytes, which net/http cannot read a reply from: %v", len(consumed), rerr)
		}
		endBody, rerr := io.ReadAll(end.Body)
		if rerr != nil || end.Close || end.StatusCode < 200 || !bytes.Equal(endBody, body) {
			t.Fatalf("pooled the connection after %d bytes, which are not one whole reply (status %d, %d bytes, close %v, %v)", len(consumed), end.StatusCode, len(endBody), end.Close, rerr)
		}
	})
}

// FuzzReplyHead holds the Transport's reply-head reader to net/http's on
// the same bytes: RoundTrip, on a connection that replays them, accepts
// exactly the replies referenceReply does, and what it returns reads as
// net/http's Response does (status, version, Header, length, transfer
// coding, Close, the body, or an error while reading it, and the Trailer
// the body's end leaves).  The one difference allowed is a head past
// http.DefaultMaxHeaderBytes, which the Transport refuses.
func FuzzReplyHead(f *testing.F) {
	for _, seed := range []string{
		"HTTP/0.0 200 \n0:\x00\n\n0", // a NUL in a field value is refused
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
		"HTTP/1.1 200 OK\r\ncontent-length: 5\r\nx-served-by: proxy\r\nSet-Cookie: a=1\r\nSet-Cookie: b=2\r\n\r\nhello",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: X-Sum\r\n\r\n5\r\nhello\r\n0\r\nX-Sum: 1\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: x-sum, ,X-Late\r\n\r\n0\r\nX-Sum: 1\r\nX-Other: 2\r\nx-sum: 3\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\n\r\n\r\n", // an empty trailer that is not a CRLF
		"HTTP/1.1 200 OK\r\nTrailer: X-Sum\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: Content-Length\r\n\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chun\u212aed\r\n\r\n", // the Kelvin sign is no k
		"HTTP/1.0 200 OK\r\nConnection: \u212aeep-alive\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 5 \r\n\r\nhello",
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello",
		"HTTP/1.1 200 OK\r\nX-Folded: a\r\n  b\r\n \r\n\r\n",
		"HTTP/1.1 200 OK\r\n X-Lead: a\r\n\r\n",
		"HTTP/1.1 200 OK\r\nBad Name: a\r\nConnection: close\r\n\r\nrest",
		"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.0 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n",
		"HTTP/1.1 204 No Content\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\n",
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 101 Switching Protocols\r\nUpgrade: x\r\n\r\n",
		"HTTP/1.1 200 OK\r\nPragma: no-cache\r\n\r\n",
		"HTTP/1.1 +99 OK\r\n\r\n",
		"HTTP/1.1 200 OK\n\nhello",
		"",
	} {
		f.Add([]byte(seed))
	}
	tr := NewTransport()
	req, err := http.NewRequest("GET", "http://origin.test/object", nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		tr.pool.dial = func(context.Context, string) (net.Conn, error) { return replayConn{src: src}, nil }
		defer tr.CloseIdleConnections()
		resp, err := tr.RoundTrip(req)
		ref, rerr := referenceReply(data)
		switch {
		case err != nil && errors.Is(err, errHeadTooLarge) && len(data) > http.DefaultMaxHeaderBytes:
			return
		case err != nil && rerr == nil:
			t.Fatalf("refused a reply net/http reads (%v)", err)
		case err == nil && rerr != nil:
			resp.Body.Close()
			t.Fatalf("read a reply net/http refuses (%v)", rerr)
		case err != nil:
			return
		}
		body, berr := io.ReadAll(resp.Body)
		resp.Body.Close()
		refBody, refErr := io.ReadAll(ref.Body)
		got := fmt.Sprintf("%d %q %q %d.%d %v %d %v %v", resp.StatusCode, resp.Status, resp.Proto, resp.ProtoMajor, resp.ProtoMinor,
			resp.Header, resp.ContentLength, resp.TransferEncoding, resp.Close)
		want := fmt.Sprintf("%d %q %q %d.%d %v %d %v %v", ref.StatusCode, ref.Status, ref.Proto, ref.ProtoMajor, ref.ProtoMinor,
			ref.Header, ref.ContentLength, ref.TransferEncoding, ref.Close)
		if got != want {
			t.Fatalf("read the reply as\n%s\nwhere net/http reads\n%s", got, want)
		}
		if !bytes.Equal(body, refBody) || (berr == nil) != (refErr == nil) {
			t.Fatalf("read %d body bytes (%v) where net/http reads %d (%v)", len(body), berr, len(refBody), refErr)
		}
		if !reflect.DeepEqual(resp.Trailer, ref.Trailer) {
			t.Fatalf("left the trailer %#v where net/http leaves %#v", resp.Trailer, ref.Trailer)
		}
	})
}

// TestFoldedHeadCost holds a reply head near http.DefaultMaxHeaderBytes
// made of folded lines, which any origin a client names may send, to a
// cost in proportion to its size: one field continued half a million
// times reads as net/http reads it, with about a hundred allocations and
// nine times the head's bytes allocated in all (the growing buffers the
// head and the folded value are read into, and a string of each).
// Joining each fold onto the value so far would copy about 10^11 bytes.
func TestFoldedHeadCost(t *testing.T) {
	var head bytes.Buffer
	head.WriteString("HTTP/1.1 200 OK\r\nX-Folded: a\r\n")
	for head.Len() < http.DefaultMaxHeaderBytes-64 {
		head.WriteString(" \n")
	}
	head.WriteString("\tz\r\nContent-Length: 2\r\n\r\nok")
	data := head.Bytes()
	ref, err := referenceReply(data)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTransport()
	t.Cleanup(tr.CloseIdleConnections)
	req, err := http.NewRequest("GET", "http://origin.test/object", nil)
	if err != nil {
		t.Fatal(err)
	}
	get := func() *http.Response {
		tr.pool.dial = func(context.Context, string) (net.Conn, error) {
			return replayConn{src: bytes.NewReader(data)}, nil
		}
		resp, err := tr.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	if resp := get(); !reflect.DeepEqual(resp.Header, ref.Header) {
		t.Fatalf("read the folded head's fields as %.80q, where net/http reads %.80q", resp.Header, ref.Header)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	get()
	runtime.ReadMemStats(&after)
	allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("a %d-byte folded head: %d allocations, %d bytes", len(data), allocs, bytes)
	if allocs > 150 || bytes > 12*uint64(len(data)) {
		t.Errorf("a %d-byte folded head allocates %d objects and %d bytes, want at most 150 and %d", len(data), allocs, bytes, 12*len(data))
	}
}

// TestClientOverTransport drives an http.Client over the Transport, as
// the load generator's callers may: it follows a redirect by its
// Location, and the reply's Header keeps repeated fields in order,
// canonical names and nothing of an informational 100 it skipped.
func TestClientOverTransport(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/moved":
			http.Redirect(w, r, "/cookies", http.StatusMovedPermanently)
		case "/cookies":
			w.Header()["Set-Cookie"] = []string{"a=1", "b=2"}
		case "/lower":
			w.Header()["x-served-by"] = []string{TierProxy} // written as it is spelled
		case "/continue":
			c, rw, err := http.NewResponseController(w).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			rw.WriteString("HTTP/1.1 100 Continue\r\nX-Interim: 1\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
			rw.Flush()
			c.Close()
		}
	}))
	t.Cleanup(srv.Close)
	tr := NewTransport()
	t.Cleanup(tr.CloseIdleConnections)
	client := &http.Client{Transport: tr}
	for _, tc := range []struct {
		path, final string
		header      http.Header
		body        string
	}{
		{"/moved", "/cookies", http.Header{"Set-Cookie": {"a=1", "b=2"}}, ""},
		{"/cookies", "/cookies", http.Header{"Set-Cookie": {"a=1", "b=2"}}, ""},
		{"/lower", "/lower", http.Header{ServedByHeader: {TierProxy}}, ""},
		{"/continue", "/continue", http.Header{"Content-Length": {"2"}}, "ok"},
	} {
		resp, err := client.Get(srv.URL + tc.path)
		if err != nil {
			t.Errorf("%s: %v", tc.path, err)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || string(body) != tc.body || resp.Request.URL.Path != tc.final {
			t.Errorf("%s: status %d, body %q, %v, answered %s; want 200, %q from %s", tc.path, resp.StatusCode, body, err, resp.Request.URL.Path, tc.body, tc.final)
		}
		for name, want := range tc.header {
			if got := resp.Header[name]; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: %s = %q, want %q", tc.path, name, got, want)
			}
		}
		if _, ok := resp.Header["X-Interim"]; ok {
			t.Errorf("%s: the skipped 100's field reached the final reply", tc.path)
		}
	}
}
