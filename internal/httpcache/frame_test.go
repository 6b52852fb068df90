package httpcache

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"webcache/internal/store"
	"webcache/internal/trace"
)

// farEnd is a stand-in member of the federation: h answers the frames a
// proxy's hops send it, and plain HTTP requests, as a daemon's handler
// does.  Every fake peer of these tests speaks frames through it.
type farEnd struct {
	*httptest.Server
	addr   string
	frames *frameServer
}

// newFarEnd serves h, behind the upgrade to frames, until the test ends.
func newFarEnd(t testing.TB, h http.Handler) *farEnd {
	t.Helper()
	f := &farEnd{frames: &frameServer{}}
	f.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == framePath {
			f.frames.ServeHTTP(w, r)
			return
		}
		h.ServeHTTP(w, r)
	}))
	f.addr = strings.TrimPrefix(f.URL, "http://")
	t.Cleanup(f.kill)
	return f
}

// kill stops the far end the way a crashed daemon stops: listener, HTTP
// connections and frame connections, busy or not, all at once.
func (f *farEnd) kill() {
	f.Server.Close()
	f.frames.mu.Lock()
	defer f.frames.mu.Unlock()
	f.frames.draining = true
	for c := range f.frames.conns {
		c.Close()
	}
}

// crash stops a daemon served by srv: http.Server.Close does not end the
// connections it handed over to frames, the daemon's Close does.
func crash(srv *httptest.Server, daemon interface{ Close() }) {
	srv.Close()
	daemon.Close()
}

// askFramed sends one GET frame to the daemon at base, as a hop would,
// from a pool of its own.
func askFramed(t testing.TB, base, pathQuery, traceID string) reply {
	t.Helper()
	pool := newConnPool(dialTCP, true)
	defer pool.closeIdle()
	to, err := parsePeers([]string{base})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pool.exchange(context.Background(), 5*time.Second, to[0].addr, request{route: pathQuery}, nil, traceID)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestHopWritesOnce pins what the frame buffers are sized for (wireBuf):
// an object-sized frame is one write, head and body together, and its
// reply is taken in by one read, the far end having written it in one.
// Every exchange with one daemon shares one connection, dialed once.
func TestHopWritesOnce(t *testing.T) {
	var dials, writes, reads atomic.Int64
	px, _, addrs := ringOf(t, 1<<20)
	dial := px.hops.dial
	px.hops.dial = func(ctx context.Context, addr string) (net.Conn, error) {
		dials.Add(1)
		conn, err := dial(ctx, addr)
		return countingConn{conn, &writes, &reads}, err
	}
	// The upgrade's own write and read are not the hops'.
	if _, ok := px.lanFetch(context.Background(), member(px, addrs[0]), keyOf("http://origin.test/absent"), ""); ok {
		t.Fatal("fetched an object the daemon does not hold")
	}
	obj := store.Object{HexKey: keyOf("http://origin.test/8k").String(), Body: sizedBody("/8k", 8<<10), Cost: 1}
	for i := 0; i < 5; i++ {
		w, r := writes.Load(), reads.Load()
		if _, ok, err := px.storeAt(member(px, addrs[0]), obj, false); !ok || err != nil {
			t.Fatalf("store = (%v, %v)", ok, err)
		}
		if got := writes.Load() - w; got != 1 {
			t.Errorf("round %d: an 8 KiB /store frame took %d writes, want 1", i, got)
		}
		if got := reads.Load() - r; got != 1 {
			t.Errorf("round %d: its receipt took %d reads, want 1", i, got)
		}
		w, r = writes.Load(), reads.Load()
		body, ok := px.lanFetch(context.Background(), member(px, addrs[0]), keyOf("http://origin.test/8k"), "")
		if !ok || !bytes.Equal(body, obj.Body) {
			t.Fatalf("LAN fetch = (%d bytes, %v)", len(body), ok)
		}
		if got := writes.Load() - w; got != 1 {
			t.Errorf("round %d: a LAN fetch's frame took %d writes, want 1", i, got)
		}
		if got := reads.Load() - r; got > 2 {
			t.Errorf("round %d: an 8 KiB LAN-fetch reply took %d reads, want at most 2", i, got)
		}
	}
	if got := dials.Load(); got != 1 {
		t.Errorf("eleven exchanges with one daemon dialed %d connections, want 1", got)
	}
}

// A pooled connection never carries its last exchange's deadline: an
// exchange under a 20 ms deadline, then, once that deadline has passed,
// one under 2 s on the same connection, which succeeds.
func TestPooledConnectionTakesEachDeadline(t *testing.T) {
	f := newFarEnd(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	pool := newConnPool(dialTCP, true)
	t.Cleanup(pool.closeIdle)
	var dials atomic.Int64
	dial := pool.dial
	pool.dial = func(ctx context.Context, addr string) (net.Conn, error) {
		dials.Add(1)
		return dial(ctx, addr)
	}
	ask := func(d time.Duration) error {
		rep, err := pool.exchange(context.Background(), d, f.addr, request{route: "/ok"}, nil, "")
		if err == nil && (rep.status != http.StatusOK || string(rep.body) != "ok") {
			t.Fatalf("reply %d %q", rep.status, rep.body)
		}
		return err
	}
	if err := ask(20 * time.Millisecond); err != nil { // the dial, the upgrade and the exchange
		t.Fatalf("the 20 ms exchange: %v", err)
	}
	time.Sleep(40 * time.Millisecond)
	if err := ask(2 * time.Second); err != nil {
		t.Fatalf("a 2 s exchange after a 20 ms one had run out: %v", err)
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("%d dials, want both exchanges on one connection", got)
	}
}

// FuzzHopReply feeds the frame reply decoder whatever a far end may send:
// any status, any declaration, a connection that ends anywhere.  Whatever
// it gets, readReply does not panic, a body it returns is exactly as long
// as was declared, a refusal comes back without one, and no declaration
// makes it allocate past bodyTrust before the bytes are there.
func FuzzHopReply(f *testing.F) {
	// The seeds are in testdata/fuzz/FuzzHopReply, one named file each: an
	// honest reply, the largest declaration (4 GiB) with ten bytes sent or
	// none, hang-ups inside the head and the body, a miss with its text, a
	// refusal with its headroom, an interim and an out-of-range status,
	// more sent than declared, an empty body and the empty stream.
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := readReply(bufio.NewReaderSize(bytes.NewReader(data), wireBuf))
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 2*bodyTrust {
			t.Errorf("readReply allocated %d bytes, want no more than bodyTrust (%d) and change", got, bodyTrust)
		}
		if err != nil {
			return
		}
		if rep.status != http.StatusOK && rep.body != nil {
			t.Errorf("status %d came back with a %d-byte body", rep.status, len(rep.body))
		}
		if declared := binary.BigEndian.Uint32(data[4:]); rep.status == http.StatusOK && uint32(len(rep.body)) != declared {
			t.Errorf("readReply returned %d body bytes of a reply that declared %d", len(rep.body), declared)
		}
	})
}

// FuzzFrameRequest feeds the server's request decoder any bytes a caller
// may send.  It does not panic; what it accepts is a GET or a POST of a
// path under the size bound with a body under maxBody; and reading the
// body the head declares allocates no more than bodyTrust before the
// bytes are there.
func FuzzFrameRequest(f *testing.F) {
	for _, seed := range []struct {
		method, path, trace string
		body                []byte
	}{
		{"GET", "/object?key=00112233445566778899aabbccddeeff", "trace-1", nil},
		{"POST", "/store?key=00112233445566778899aabbccddeeff&cost=1&ifFree=1", "", []byte("a body")},
		{"GET", "/digest", "", nil},
	} {
		b, err := appendRequest(nil, &request{route: seed.path}, seed.method == http.MethodPost, seed.trace, len(seed.body))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append(b, seed.body...))
	}
	f.Add([]byte{'P', 0, 0, 1, 0xff, 0xff, 0xff, 0xff, '/'})
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReaderSize(bytes.NewReader(data), wireBuf)
		q, err := readRequest(br)
		if err != nil {
			return
		}
		if q.method != http.MethodGet && q.method != http.MethodPost {
			t.Errorf("accepted method %q", q.method)
		}
		if q.pathQuery == "" || q.pathQuery[0] != '/' || len(q.pathQuery) > maxPathQuery || q.bodyLen > maxBody {
			t.Errorf("accepted path %q with a %d-byte body", q.pathQuery, q.bodyLen)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		body, err := readBody(br, q.bodyLen)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 2*bodyTrust {
			t.Errorf("a %d-byte declaration cost %d bytes of allocation, want no more than bodyTrust (%d) and change", q.bodyLen, got, bodyTrust)
		}
		if err == nil && int64(len(body)) != q.bodyLen {
			t.Errorf("read %d body bytes of %d declared", len(body), q.bodyLen)
		}
	})
}

// FuzzStoreReceipt feeds a pass-down any receipt a client cache may send
// (a /store reply's body).  decodeReceipt takes exactly a 0/1 flag and
// whole 32-byte keys, lists the hex ones among them as evicted, and
// reads back what appendReceipt writes for what it read.  A receipt it
// takes leaves a hardened proxy's directory listing the stored key, with
// the passed-down body's digest, if and only if the receipt says it was
// stored and not also evicted, and listing none of the keys it says were
// evicted; nothing panics.
func FuzzStoreReceipt(f *testing.F) {
	stored := keyOf("http://origin.test/stored")
	other := keyOf("http://origin.test/other").String()
	f.Add([]byte("1"))
	f.Add([]byte("0"))
	f.Add([]byte("1" + other))
	f.Add([]byte("0" + other + stored.String()))
	f.Add([]byte("1" + stored.String() + strings.Repeat("z", 32)))
	f.Add([]byte("1" + strings.ToUpper(other)))
	f.Add([]byte(""))
	f.Add([]byte("2" + other))
	f.Add([]byte("1" + other[:31]))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeReceipt(data)
		wellFormed := len(data) > 0 && (data[0] == '0' || data[0] == '1') && (len(data)-1)%32 == 0
		if (err == nil) != wellFormed {
			t.Fatalf("receipt %q: decodeReceipt error %v", data, err)
		}
		if err != nil {
			return
		}
		var keys []store.Object
		var want []trace.ObjectID
		for k := data[1:]; len(k) > 0; k = k[32:] {
			if id, ok := hexID(k[:32]); ok {
				keys = append(keys, store.Object{HexKey: string(k[:32])})
				want = append(want, fold(id))
			}
		}
		if rec.StoredOK != (data[0] == '1') || !slices.Equal(rec.Evicted, want) {
			t.Fatalf("receipt %q: decoded (%v, %x), want (%v, %x)", data, rec.StoredOK, rec.Evicted, data[0] == '1', want)
		}
		again, err := decodeReceipt(appendReceipt(nil, rec.StoredOK, keys))
		if err != nil || again.StoredOK != rec.StoredOK || !slices.Equal(again.Evicted, rec.Evicted) {
			t.Fatalf("receipt %q: appendReceipt's rewrite reads (%v, %v)", data, again, err)
		}
		px := newProxy(t, Options{CapacityBytes: 1 << 20, Hardened: true})
		px.dir[fold(keyOf(other))] = 1
		rec.Stored = fold(stored)
		px.applyReceipt(rec, []byte("body"))
		for _, ev := range rec.Evicted {
			if _, ok := px.dir[ev]; ok {
				t.Errorf("receipt %q: evicted key %x still listed", data, ev)
			}
		}
		selfEvicted := slices.Contains(rec.Evicted, fold(stored))
		sum, listed := px.dir[fold(stored)]
		if want := rec.StoredOK && !selfEvicted; listed != want {
			t.Errorf("receipt %q: stored key listed %v, want %v", data, listed, want)
		}
		if listed && sum != bodyDigest([]byte("body")) {
			t.Errorf("receipt %q: stored key listed with digest %x, want the body's", data, sum)
		}
	})
}

// Shutting a daemon's server down ends its frame connections: an idle
// one at once, where http.Server.Shutdown would otherwise leave every
// hijacked connection open.
func TestFrameShutdownClosesConnections(t *testing.T) {
	cc := NewClientCacheOpts(Options{CapacityBytes: 1 << 20})
	srv := httptest.NewServer(cc.Handler())
	t.Cleanup(srv.Close)
	addr := strings.TrimPrefix(srv.URL, "http://")
	pool := newConnPool(dialTCP, true)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if rep, err := pool.exchange(ctx, 5*time.Second, addr, request{route: routeObject, key: keyOf("absent")}, nil, ""); err != nil || rep.status != http.StatusNotFound {
		t.Fatalf("miss = (%d, %v), want a 404", rep.status, err)
	}
	conn := pool.idle[addr][0]
	if err := srv.Config.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.br.ReadByte(); err == nil || isTimeout(err) {
		t.Fatalf("read on a frame connection after Shutdown: %v, want the end of the connection", err)
	}
	cc.Close() // returns: no frame loop is left to wait for
}

// CloseIdleConnections drops the proxy's idle frame connections, which
// ends the frame loops at the far end.
func TestCloseIdleDropsFrames(t *testing.T) {
	px, ccs, addrs := ringOf(t, 1<<20)
	px.lanFetch(context.Background(), member(px, addrs[0]), keyOf("absent"), "")
	if n := len(px.hops.idle[addrs[0]]); n != 1 {
		t.Fatalf("%d idle frame connections after one hop, want 1", n)
	}
	px.CloseIdleConnections()
	if n := len(px.hops.idle[addrs[0]]); n != 0 {
		t.Fatalf("%d idle frame connections after CloseIdleConnections, want 0", n)
	}
	done := make(chan struct{})
	go func() {
		ccs[0].frames.loops.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the daemon's frame loop outlived the connection its caller dropped")
	}
}

// A requester that hangs up on a /peer-lookup cancels it all the way
// down: the relay's /object at the client cache sees its context end, as
// it did when every hop was a net/http exchange.
func TestAbandonedPeerLookupCancelsRelay(t *testing.T) {
	cancelled := make(chan struct{})
	hung := newFarEnd(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
			close(cancelled)
		case <-time.After(10 * time.Second):
		}
	}))
	peerPx := newProxy(t, Options{CapacityBytes: 1 << 20})
	peerPx.ring.add(hung.addr)
	objURL := "http://origin.test/relayed"
	plantDir(peerPx, objURL)
	peerSrv := httptest.NewServer(peerPx.Handler())
	t.Cleanup(peerSrv.Close)

	px := newProxy(t, Options{CapacityBytes: 1 << 20, Peers: []string{peerSrv.URL}})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := px.hop(ctx, px.coop[0], request{route: routePeerLookup, key: keyOf(objURL)}, nil, "")
		errc <- err
	}()
	time.Sleep(100 * time.Millisecond) // the relay's /object is out
	cancel()
	// The relay hop's own deadline, defaultPeerTimeout, would also end
	// the hung /object; wait for less than that from the cancel, so only
	// the cancellation travelling down can close the channel in time.
	select {
	case <-cancelled:
	case <-time.After(defaultPeerTimeout / 2):
		t.Fatal("the relay's /object kept running after the lookup was abandoned")
	}
	if err := <-errc; err == nil {
		t.Fatal("the abandoned peer-lookup came back")
	}
}
