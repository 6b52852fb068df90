package main

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"webcache/internal/httpcache"
)

// countingListener counts the connections a daemon accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// TestDaemonHeaderTimeout: a daemon closes a connection that never
// finishes its request line, and a frame connection left idle past the
// same bound still carries the next hop.  The test shrinks the bound on
// the server newDaemonServer builds, so it runs in a second.
func TestDaemonHeaderTimeout(t *testing.T) {
	if newDaemonServer(nil).ReadHeaderTimeout != headerTimeout || headerTimeout <= 0 {
		t.Fatalf("daemon server's ReadHeaderTimeout is not headerTimeout (%v)", headerTimeout)
	}
	const bound = 100 * time.Millisecond

	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := "object " + r.URL.Path
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		io.WriteString(w, body)
	}))
	defer origin.Close()

	// Proxy b is the daemon under test; proxy a cooperates with it, so
	// a's remote hits travel as frames on a connection b accepted.
	b, err := httpcache.NewProxyOpts(httpcache.Options{CapacityBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: inner}
	srv := newDaemonServer(b.Handler())
	srv.ReadHeaderTimeout = bound
	go srv.Serve(ln)
	defer srv.Close()
	bURL := "http://" + ln.Addr().String()

	a, err := httpcache.NewProxyOpts(httpcache.Options{CapacityBytes: 1 << 20, Peers: []string{bURL}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	aSrv := httptest.NewServer(a.Handler())
	defer aSrv.Close()

	oneShot := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	fetch := func(base, obj string) string {
		t.Helper()
		resp, err := oneShot.Get(base + "/fetch?url=" + origin.URL + "/" + obj)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fetch %s from %s: %s", obj, base, resp.Status)
		}
		return resp.Header.Get(httpcache.ServedByHeader)
	}

	// A connection that sends part of a request line is closed once the
	// bound passes (net/http may write an error reply first).
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	io.WriteString(conn, "GET /fet")
	conn.SetReadDeadline(time.Now().Add(20 * bound))
	start := time.Now()
	if reply, err := io.ReadAll(conn); err != nil || time.Since(start) < bound/2 {
		t.Fatalf("partial request line: read %q, %v after %v; want the connection closed after %v",
			reply, err, time.Since(start), bound)
	}

	fetch(bURL, "x")
	fetch(bURL, "y")
	if got := fetch(aSrv.URL, "x"); got != "remote-proxy" {
		t.Fatalf("a's first fetch served by %q, want remote-proxy", got)
	}
	before := ln.accepted.Load()
	time.Sleep(3 * bound)
	if got := fetch(aSrv.URL, "y"); got != "remote-proxy" {
		t.Fatalf("a's fetch after idling served by %q, want remote-proxy", got)
	}
	if after := ln.accepted.Load(); after != before {
		t.Fatalf("b accepted %d connections for a hop on an idle frame connection, want 0", after-before)
	}
}
