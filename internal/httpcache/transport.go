package httpcache

import (
	"io"
	"net/http"
	"time"
)

// NewTransport returns the tuned *http.Transport every component of
// the live system shares the shape of: the proxy's outbound client
// (origin fetches, LAN fetches, peer lookups, pass-downs), the
// client-cache daemon's push client, and the load generator's driver
// (internal/loadgen).
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
	return tr
}

// newHTTPClient builds a client on a fresh tuned transport.
func newHTTPClient(timeout time.Duration) *http.Client {
	return &http.Client{Timeout: timeout, Transport: NewTransport()}
}

// drainCap bounds what drainClose reads from a reply nobody wants: the
// error texts and receipts of this protocol are tens of bytes, and past
// a few KiB a fresh connection is cheaper than the read.
const drainCap = 4 << 10

// drainClose reads what is left of a reply, up to drainCap, and closes
// it.  net/http returns a connection to the keep-alive pool only when
// its reply was read to EOF; closing a refused store's or a missed
// lookup's short text unread discards the connection, and the next call
// to that daemon pays a TCP dial.  Every outbound call that can return
// before reading its reply to the end closes it through here.
func drainClose(body io.ReadCloser) {
	io.CopyN(io.Discard, body, drainCap)
	body.Close()
}

// CloseIdleConnections drops the proxy's pooled outbound connections.
// Shutdown paths call this before draining servers: a connection the
// transport dialed but never used sits in StateNew on the server side,
// and http.Server.Shutdown only reaps those after a hard-coded 5s
// grace — every graceful drain would stall that long otherwise.
func (p *Proxy) CloseIdleConnections() { p.client.CloseIdleConnections() }

// CloseIdleConnections drops the daemon's pooled outbound connections
// (push deliveries to proxies); see Proxy.CloseIdleConnections.
func (c *ClientCache) CloseIdleConnections() { c.client.CloseIdleConnections() }
