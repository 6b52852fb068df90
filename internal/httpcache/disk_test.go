package httpcache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"webcache/internal/wiretest"
)

// fetchVia GETs objURL through the proxy at proxyURL and returns
// (status, serving tier, body).
func fetchVia(t *testing.T, proxyURL, objURL string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/fetch?url=%s", proxyURL, url.QueryEscape(objURL)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get(ServedByHeader), string(body)
}

// A proxy with a disk tier must serve its cached objects across a
// restart: the first process fetches from the origin and persists; a
// second process on the same directory recovers the log and serves
// the object without touching the origin, attributed TierProxyDisk —
// and the disk hit promotes back into memory, so the next request is
// a plain proxy hit.
func TestProxyDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	origin := newTestOrigin()
	defer origin.srv.Close()
	opts := Options{CapacityBytes: 1 << 20, DiskDir: dir}
	objURL := origin.srv.URL + "/persisted"

	p1, err := NewProxyOpts(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(wiretest.StrictFraming(t, p1.Handler()))
	status, tier, body := fetchVia(t, srv1.URL, objURL)
	if status != http.StatusOK || tier != TierOrigin {
		t.Fatalf("cold fetch: status %d tier %q", status, tier)
	}
	srv1.Close()
	if err := p1.Close(); err != nil {
		t.Fatalf("closing first proxy: %v", err)
	}
	if hits := origin.hits.Load(); hits != 1 {
		t.Fatalf("origin hits = %d after one cold fetch", hits)
	}

	// "Restart": a fresh proxy process over the same directory.
	p2, err := NewProxyOpts(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := p2.Disk().Recovered(); got != 1 {
		t.Fatalf("recovered %d objects, want 1", got)
	}
	srv2 := httptest.NewServer(wiretest.StrictFraming(t, p2.Handler()))
	defer srv2.Close()

	status, tier, got := fetchVia(t, srv2.URL, objURL)
	if status != http.StatusOK || tier != TierProxyDisk {
		t.Fatalf("post-restart fetch: status %d tier %q", status, tier)
	}
	if got != body {
		t.Fatalf("post-restart body %q, want %q", got, body)
	}
	if hits := origin.hits.Load(); hits != 1 {
		t.Fatalf("origin refetched after restart (%d hits)", hits)
	}
	if st := p2.snapshotStats(); st.DiskHits != 1 {
		t.Fatalf("disk hits = %d, want 1", st.DiskHits)
	}
	// The hit was promoted into the (roomy) memory tier.
	if _, tier, _ := fetchVia(t, srv2.URL, objURL); tier != TierProxy {
		t.Fatalf("promoted fetch served by %q, want %q", tier, TierProxy)
	}
}

// An object too large for the proxy's memory tier still persists to
// the disk tier, so the next request for it is a disk serve instead
// of a second origin fetch.
func TestOversizedObjectServedFromDisk(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(bytes.Repeat([]byte("x"), 4096))
	}))
	defer origin.Close()

	p, err := NewProxyOpts(Options{
		CapacityBytes:     64, // the memory tier refuses a 4 KiB body
		DiskDir:           t.TempDir(),
		DiskCapacityBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv := httptest.NewServer(wiretest.StrictFraming(t, p.Handler()))
	defer srv.Close()
	objURL := origin.URL + "/big"

	if _, tier, _ := fetchVia(t, srv.URL, objURL); tier != TierOrigin {
		t.Fatalf("cold fetch served by %q, want %q", tier, TierOrigin)
	}
	if !p.Sync() {
		t.Fatal("disk sync failed")
	}
	status, tier, body := fetchVia(t, srv.URL, objURL)
	if status != http.StatusOK || tier != TierProxyDisk {
		t.Fatalf("refetch: status %d tier %q, want disk serve", status, tier)
	}
	if len(body) != 4096 {
		t.Fatalf("refetch body %d bytes, want 4096", len(body))
	}
}

// A client-cache daemon restarting over its disk directory must
// re-register its recovered contents with the proxy: the /register
// body carries the recovered hex keys, the proxy re-seeds its lookup
// directory, and a /fetch for one of those objects is served from the
// restarted daemon — with no origin at all behind the URL.
func TestClientCacheRecoveryReRegisters(t *testing.T) {
	dir := t.TempDir()
	const objURL = "http://origin.invalid/recovered"
	id := keyOf(objURL)

	cc1, err := NewClientCacheOpts(Options{CapacityBytes: 1 << 20, DiskDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(wiretest.StrictFraming(t, cc1.Handler()))
	resp, err := http.Post(srv1.URL+"/store?key="+id.String()+"&cost=1",
		"application/octet-stream", strings.NewReader("recovered-body"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	srv1.Close()
	if err := cc1.Close(); err != nil {
		t.Fatalf("closing first daemon: %v", err)
	}

	cc2, err := NewClientCacheOpts(Options{CapacityBytes: 1 << 20, DiskDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer cc2.Close()
	rec := cc2.RecoveredHexKeys()
	found := false
	for _, h := range rec {
		if h == id.String() {
			found = true
		}
	}
	if !found {
		t.Fatalf("recovered keys %v do not include %s", rec, id.String())
	}
	srv2 := httptest.NewServer(wiretest.StrictFraming(t, cc2.Handler()))
	defer srv2.Close()

	px := newProxy(t, Options{CapacityBytes: 1 << 20})
	pxSrv := httptest.NewServer(wiretest.StrictFraming(t, px.Handler()))
	defer pxSrv.Close()
	payload, err := json.Marshal(registerBody{Recovered: rec})
	if err != nil {
		t.Fatal(err)
	}
	addr := strings.TrimPrefix(srv2.URL, "http://")
	resp, err = http.Post(fmt.Sprintf("%s/register?addr=%s", pxSrv.URL, addr),
		"application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := px.snapshotStats(); st.DirEntries != len(rec) {
		t.Fatalf("directory holds %d entries after re-registration, want %d", st.DirEntries, len(rec))
	}

	// origin.invalid never resolves: only the re-registered directory
	// entry and the daemon's recovered disk tier can serve this.
	status, tier, body := fetchVia(t, pxSrv.URL, objURL)
	if status != http.StatusOK || tier != TierClientCache {
		t.Fatalf("recovered fetch: status %d tier %q", status, tier)
	}
	if body != "recovered-body" {
		t.Fatalf("recovered body %q", body)
	}
	if st := cc2.snapshotStats(); st.DiskHits != 1 {
		t.Fatalf("daemon disk hits = %d, want 1", st.DiskHits)
	}
}
