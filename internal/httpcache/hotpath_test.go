package httpcache

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
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

// TestReceiptFastPathBytes pins the pre-serialized receipt to what
// json.Encoder emits for the same value, so the fast path is
// indistinguishable on the wire from the encoding path it bypasses.
func TestReceiptFastPathBytes(t *testing.T) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(StoreReceipt{Stored: true}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), receiptStoredClean) {
		t.Fatalf("receiptStoredClean = %q, json.Encoder emits %q", receiptStoredClean, buf.Bytes())
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
