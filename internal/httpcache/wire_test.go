package httpcache

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
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

			dskPx, err := NewProxyOpts(traced(Options{CapacityBytes: 8, DiskDir: t.TempDir(), DiskCapacityBytes: capacity}))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { dskPx.Close() })
			dsk := pin(t, dskPx, "")

			cc := newClientCache(t, Options{CapacityBytes: capacity})
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
				{name: "fetch proxy disk", url: dsk.fetchURL(origin.URL + "/d"), path: "/d", tier: TierProxyDisk,
					before: func() {
						get(t, dsk.fetchURL(origin.URL+"/d"))
						if !dskPx.Sync() {
							t.Fatal("disk sync failed")
						}
					}},
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

// TestHopWritesOnce pins what the transport's buffers are sized for
// (wireBuf): an object-sized message is one write, headers and body
// together, and its reply is taken in by as many reads as the far end
// made writes.  net/http's server writes an 8 KiB reply in two, through
// its fixed 4 KiB buffer, so two reads is the floor for a LAN fetch.  A
// body read to its declared end also leaves the connection in the pool
// with nothing more to drain: every exchange below shares one.
func TestHopWritesOnce(t *testing.T) {
	var dials, writes, reads atomic.Int64
	px, _, addrs := ringOf(t, 1<<20)
	tr := px.client.Transport.(*http.Transport)
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		return countingConn{conn, &writes, &reads}, err
	}
	obj := store.Object{HexKey: keyOf("http://origin.test/8k").String(), Body: sizedBody("/8k", 8<<10), Cost: 1}
	for i := 0; i < 5; i++ {
		w, r := writes.Load(), reads.Load()
		if rec, err := px.storeAt(addrs[0], obj, false); rec == nil || err != nil {
			t.Fatalf("store = (%v, %v)", rec, err)
		}
		if got := writes.Load() - w; got != 1 {
			t.Errorf("round %d: an 8 KiB /store POST took %d writes, want 1", i, got)
		}
		if got := reads.Load() - r; got != 1 {
			t.Errorf("round %d: its receipt took %d reads, want 1", i, got)
		}
		w, r = writes.Load(), reads.Load()
		body, ok := px.lanFetch(context.Background(), addrs[0], keyOf("http://origin.test/8k"), "")
		if !ok || !bytes.Equal(body, obj.Body) {
			t.Fatalf("LAN fetch = (%d bytes, %v)", len(body), ok)
		}
		if got := writes.Load() - w; got != 1 {
			t.Errorf("round %d: a LAN fetch's GET took %d writes, want 1", i, got)
		}
		if got := reads.Load() - r; got > 2 {
			t.Errorf("round %d: an 8 KiB LAN-fetch reply took %d reads, want at most 2", i, got)
		}
	}
	if got := dials.Load(); got != 1 {
		t.Errorf("ten exchanges with one daemon dialed %d connections, want 1", got)
	}
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
}

// replyServer is a far end that speaks raw bytes: each request's query
// says which status and Content-Length to announce (declared < 0: none),
// how many body bytes to send, and after how many bytes of the reply as a
// whole to close the connection.
func replyServer(t testing.TB) (addr string) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				req, err := http.ReadRequest(bufio.NewReader(conn))
				if err != nil {
					return
				}
				q := req.URL.Query()
				declared, _ := strconv.ParseInt(q.Get("declared"), 10, 64)
				sent, _ := strconv.Atoi(q.Get("sent"))
				closeAt, _ := strconv.Atoi(q.Get("closeAt"))
				reply := "HTTP/1.1 " + q.Get("status") + " Fuzzed\r\n"
				if declared >= 0 {
					reply += "Content-Length: " + strconv.FormatInt(declared, 10) + "\r\n"
				}
				reply += "\r\n" + strings.Repeat("b", sent)
				conn.Write([]byte(reply[:min(closeAt, len(reply))]))
			}()
		}
	}()
	return ln.Addr().String()
}

// FuzzHopReply puts hop in front of a far end that may announce one
// length, send another and hang up anywhere.  Whatever it does, hop does
// not panic, a body it returns is exactly as long as was declared, and no
// declaration makes it allocate past bodyTrust before the bytes are there.
func FuzzHopReply(f *testing.F) {
	// The seeds are in testdata/fuzz/FuzzHopReply, one named file each: an
	// honest reply, a terabyte declared and ten bytes sent, a hang-up
	// inside the headers, no length at all, more sent than declared.
	addr := replyServer(f)
	px := newProxy(f, Options{CapacityBytes: 1 << 20, Defenses: Defenses{PeerTimeout: 2 * time.Second}})
	f.Fuzz(func(t *testing.T, status uint16, declared int64, sent, closeAt uint16) {
		path := fmt.Sprintf("/object?status=%03d&declared=%d&sent=%d&closeAt=%d", status, declared, sent, closeAt)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := px.hop(context.Background(), peer{clientCache, addr}, "GET", path, nil, "")
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 2*bodyTrust {
			t.Errorf("%s: hop allocated %d bytes, want no more than bodyTrust (%d) and change", path, got, bodyTrust)
		}
		if err != nil {
			return
		}
		if rep.status != http.StatusOK && rep.body != nil {
			t.Errorf("%s: status %d came back with a %d-byte body", path, rep.status, len(rep.body))
		}
		if rep.status == http.StatusOK && declared >= 0 && int64(len(rep.body)) != declared {
			t.Errorf("%s: hop returned %d body bytes of a reply that declared %d", path, len(rep.body), declared)
		}
	})
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
