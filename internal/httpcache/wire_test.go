package httpcache

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

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
