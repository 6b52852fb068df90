package httpcache

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"webcache/internal/store"
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

			dskPx, err := NewProxyOpts(Options{CapacityBytes: 8, DiskDir: t.TempDir(), DiskCapacityBytes: capacity})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { dskPx.Close() })
			dsk := pin(t, dskPx, "")

			cc := NewClientCache(capacity)
			ccSrv := httptest.NewServer(cc.Handler())
			t.Cleanup(ccSrv.Close)
			resp, err := http.Post(ccSrv.URL+"/store?key="+key("/direct")+"&cost=1", "application/octet-stream",
				bytes.NewReader(sizedBody("/direct", size)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()

			rig := newFleetRig(t, 3, 1, 0, nil)
			ownerIdx := rig.ownerIndex(t, origin.URL+"/fleet")
			owner, front := rig.urls[ownerIdx], rig.urls[otherIndex(3, ownerIdx)]

			rows := []struct {
				name, url, path, tier string
				hdr                   []string
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
				{name: "peer-lookup pushed up from a client cache", url: p2p.proxyS[0].URL + "/peer-lookup?key=" + key("/b"),
					path: "/b", tier: TierPeerP2P},
				{name: "client-cache /object", url: ccSrv.URL + "/object?key=" + key("/direct"),
					path: "/direct", tier: TierClientCache},
				{name: "fleet hop, the owner's origin fill", url: fetchURL(owner, "/fleet"), path: "/fleet", tier: TierOrigin,
					hdr: []string{FleetHopHeader, "1"}},
				{name: "fleet hop, the owner's cache hit", url: fetchURL(owner, "/fleet"), path: "/fleet", tier: TierProxy,
					hdr: []string{FleetHopHeader, "1"}},
				{name: "fetch relayed from the fleet owner", url: fetchURL(front, "/fleet"), path: "/fleet", tier: TierRemoteProxy},
			}
			for _, row := range rows {
				if row.before != nil {
					row.before()
				}
				resp, body := framedGet(t, row.url, row.hdr...)
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
			}
		})
	}
}
