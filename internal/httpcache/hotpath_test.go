package httpcache

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"webcache/internal/store"
)

// TestQueryParamMatchesURLValues holds the zero-alloc query scanner to
// the stdlib's answer on every shape the wire protocol produces.
func TestQueryParamMatchesURLValues(t *testing.T) {
	cases := []struct{ raw, key string }{
		{"url=http://origin/page", "url"},
		{"url=http://origin/page?a=1&b=2", "url"}, // nested '?' stays in the value
		{"key=0123456789abcdef0123456789abcdef&cost=2.5", "cost"},
		{"key=0123456789abcdef0123456789abcdef&cost=2.5&ifFree=1", "ifFree"},
		{"url=http%3A%2F%2Forigin%2Fa%20page", "url"}, // escaped fallback
		{"a=1&url=plus+means+space", "url"},
		{"a=1&b=2", "missing"},
		{"urlx=decoy&url=real", "url"},
		{"url=", "url"},
		{"", "url"},
	}
	for _, c := range cases {
		want := ""
		if vs, err := url.ParseQuery(c.raw); err == nil {
			want = vs.Get(c.key)
		}
		if got := queryParam(c.raw, c.key); got != want {
			t.Errorf("queryParam(%q, %q) = %q, want %q", c.raw, c.key, got, want)
		}
	}
}

// TestReceiptFastPathBytes pins the append-based receipt encoder to what
// json.Encoder emits for the same StoreReceipt, so the receipt on the
// wire is the one the encoder wrote: stored or not, with none, one or
// several evicted keys (upper-case hex included), and with a reason.
func TestReceiptFastPathBytes(t *testing.T) {
	key := func(u string) store.Object { return store.Object{HexKey: keyOf(u).String()} }
	for _, tc := range []struct {
		stored  bool
		evicted []store.Object
		reason  string
	}{
		{stored: true},
		{stored: false},
		{stored: true, evicted: []store.Object{key("a")}},
		{stored: true, evicted: []store.Object{key("a"), key("b"), key("c")}},
		{stored: false, reason: "empty-object"},
		{stored: true, evicted: []store.Object{{HexKey: strings.ToUpper(keyOf("d").String())}}},
	} {
		want := StoreReceipt{Stored: tc.stored, Reason: tc.reason}
		for _, ev := range tc.evicted {
			want.Evicted = append(want.Evicted, ev.HexKey)
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(want); err != nil {
			t.Fatal(err)
		}
		if got := appendReceipt(nil, tc.stored, tc.evicted, tc.reason); !bytes.Equal(got, buf.Bytes()) {
			t.Errorf("appendReceipt = %q, json.Encoder emits %q", got, buf.Bytes())
		}
	}
}

// TestServedByFallback covers the allocating fallback for tier labels
// outside the precomputed set.
func TestServedByFallback(t *testing.T) {
	rec := httptest.NewRecorder()
	serve(rec, []byte("body"), "some-novel-tier")
	if got := rec.Header().Get(ServedByHeader); got != "some-novel-tier" {
		t.Fatalf("ServedBy = %q, want some-novel-tier", got)
	}
	rec = httptest.NewRecorder()
	serve(rec, []byte("body"), TierProxy)
	if got := rec.Header().Get(ServedByHeader); got != TierProxy {
		t.Fatalf("ServedBy = %q, want %q", got, TierProxy)
	}
}

// TestStoreCostSanitized holds the client cache's /store to one rule:
// the stored greedy-dual cost is the query's when finite and positive,
// else 1.
func TestStoreCostSanitized(t *testing.T) {
	id := keyOf("http://origin/cost")
	for _, tc := range []struct {
		cost string
		want float64
	}{
		{"NaN", 1}, {"Inf", 1}, {"-Inf", 1}, {"1e400", 1}, {"-1", 1},
		{"0", 1}, {"", 1}, {"x", 1}, {"2.5", 2.5},
	} {
		cc := NewClientCacheOpts(Options{CapacityBytes: 1 << 20})
		target := "/store?key=" + id.String() + "&cost=" + url.QueryEscape(tc.cost)
		rec := httptest.NewRecorder()
		cc.Handler().ServeHTTP(rec, httptest.NewRequest("POST", target, bytes.NewReader([]byte("body"))))
		obj, ok := cc.Store().Get(fold(id))
		if rec.Code != http.StatusOK || !ok {
			t.Fatalf("cost=%q: status %d, stored %v", tc.cost, rec.Code, ok)
		}
		if obj.Cost != tc.want {
			t.Errorf("cost=%q: stored cost %v, want %v", tc.cost, obj.Cost, tc.want)
		}
	}
}
