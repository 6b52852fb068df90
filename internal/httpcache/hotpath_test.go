package httpcache

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"

	"webcache/internal/store"
	"webcache/internal/trace"
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

// FuzzAppendUnescaped holds the stack-buffer decoder that keys an
// escaped /fetch URL to url.QueryUnescape: the same bytes, and a
// malformed escape refused by both.
func FuzzAppendUnescaped(f *testing.F) {
	for _, s := range []string{"", "plain", "http%3A%2F%2Forigin%2Fa%20page", "a+b", "%", "%4", "%zz", "%41%4a%4A", "100%"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := url.QueryUnescape(s)
		got, ok := appendUnescaped(nil, s)
		if ok != (err == nil) || ok && string(got) != want {
			t.Fatalf("appendUnescaped(%q) = %q, %v; url.QueryUnescape = %q, %v", s, got, ok, want, err)
		}
	})
}

// A /fetch whose url is missing, empty or malformed in its escapes is a
// 400 that asks no tier and counts no request.
func TestFetchRefusesMalformedURL(t *testing.T) {
	p := newProxy(t, Options{CapacityBytes: 1 << 20})
	for _, q := range []string{"", "url=", "url=%", "url=http%3A%2", "url=http%3A%2F%2Forigin%zz", "other=1"} {
		rec := httptest.NewRecorder()
		p.handleFetch(rec, httptest.NewRequest("GET", "/fetch?"+q, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("/fetch?%s: status %d, want 400", q, rec.Code)
		}
	}
	if got := p.snapshotStats().Requests; got != 0 {
		t.Errorf("%d requests counted, want 0", got)
	}
}

// TestReceiptFastPathBytes pins the store receipt's bytes, stored or
// not, with none, one or several evicted keys (upper-case hex included),
// and that decodeReceipt reads back the flag and the keys' folds.
func TestReceiptFastPathBytes(t *testing.T) {
	a, b, c := keyOf("a").String(), keyOf("b").String(), keyOf("c").String()
	upper := strings.ToUpper(keyOf("d").String())
	for _, tc := range []struct {
		stored  bool
		evicted []string
		want    string
	}{
		{stored: true, want: "1"},
		{stored: false, want: "0"},
		{stored: true, evicted: []string{a}, want: "1" + a},
		{stored: true, evicted: []string{a, b, c}, want: "1" + a + b + c},
		{stored: false, evicted: []string{a}, want: "0" + a},
		{stored: true, evicted: []string{upper}, want: "1" + upper},
	} {
		var objs []store.Object
		var folds []trace.ObjectID
		for _, hex := range tc.evicted {
			objs = append(objs, store.Object{HexKey: hex})
			id, _ := hexID(hex)
			folds = append(folds, fold(id))
		}
		got := appendReceipt(nil, tc.stored, objs)
		if string(got) != tc.want {
			t.Errorf("appendReceipt = %q, want %q", got, tc.want)
		}
		rec, err := decodeReceipt(got)
		if err != nil || rec.StoredOK != tc.stored || !slices.Equal(rec.Evicted, folds) {
			t.Errorf("decodeReceipt(%q) = (%+v, %v), want stored %v, evicted %x", got, rec, err, tc.stored, folds)
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
