package httpcache

import (
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
)

// This file holds the request-path allocation helpers: the live data
// plane serves cache hits without allocating (TestFetchHitPathAllocs
// holds it to zero allocs per request), so anything a handler does per
// request either reuses a pooled buffer or touches nothing on the
// heap.  See DESIGN.md §13.

// queryParam returns the named parameter from a raw query string
// without materializing url.Values (which allocates a map and a slice
// per key).  An unescaped value returns a substring of rawQuery and
// allocates nothing; values carrying '%' or '+' escapes go through
// url.QueryUnescape.  A malformed escape returns "" (url.ParseQuery
// would have dropped the pair).
func queryParam(rawQuery, key string) string {
	dec, err := url.QueryUnescape(queryRaw(rawQuery, key))
	if err != nil {
		return ""
	}
	return dec
}

// queryRaw returns the named parameter as sent, still escaped.
func queryRaw(rawQuery, key string) string {
	for q := rawQuery; q != ""; {
		var kv string
		if i := strings.IndexByte(q, '&'); i >= 0 {
			kv, q = q[:i], q[i+1:]
		} else {
			kv, q = q, ""
		}
		if len(kv) > len(key) && kv[len(key)] == '=' && kv[:len(key)] == key {
			return kv[len(key)+1:]
		}
	}
	return ""
}

// appendUnescaped appends s, unescaped as url.QueryUnescape does, to
// dst; false on a malformed escape.  Into a caller's stack buffer it
// decodes an escaped /fetch URL for hashing without a heap string.
func appendUnescaped(dst []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch c {
		case '+':
			c = ' '
		case '%':
			if i+2 >= len(s) {
				return dst, false
			}
			v, err := strconv.ParseUint(s[i+1:i+3], 16, 8)
			if err != nil {
				return dst, false
			}
			c = byte(v)
			i += 2
		}
		dst = append(dst, c)
	}
	return dst, true
}

// servedBy holds one preallocated header value per serving tier, so
// the serve path assigns a shared slice into the response header map
// instead of allocating a fresh []string per response.  The slices
// are never mutated after construction.  ServedByHeader is already in
// canonical MIME form, so direct map assignment matches Header.Set.
var servedBy = map[string][]string{
	TierProxy:       {TierProxy},
	TierClientCache: {TierClientCache},
	TierRemoteProxy: {TierRemoteProxy},
	TierOrigin:      {TierOrigin},
	TierPeerProxy:   {TierPeerProxy},
	TierPeerP2P:     {TierPeerP2P},
}

// contentTypeOctet is what every object body, digest and store receipt
// is declared as over HTTP; an undeclared reply has its first 512
// bytes sniffed for a type nobody reads.
var contentTypeOctet = []string{"application/octet-stream"}

// decimalValues memoizes decimal header values (Content-Length,
// X-Cache-Free): a cache serves the same objects again and again, and a
// full client cache reports the same headroom, so a hit finds its value
// here and allocates nothing, and values that share a slot only cost each
// other a re-format.  A value's slot is a multiplicative hash of it, not
// the value modulo the table size, under which an object size and a full
// cache's 0 headroom, a power of two apart, would evict each other on
// every store.  Entries are immutable.
const decimalBits = 10

var decimalValues [1 << decimalBits]atomic.Pointer[decimal]

type decimal struct {
	n int
	v []string
}

func decimalValue(n int) []string {
	slot := &decimalValues[uint64(n)*0x9e3779b97f4a7c15>>(64-decimalBits)]
	if e := slot.Load(); e != nil && e.n == n {
		return e.v
	}
	e := &decimal{n, []string{strconv.Itoa(n)}}
	slot.Store(e)
	return e.v
}

// serve writes an object body with its serving-tier header, and is the
// only place one is written.  It declares the length: net/http fills one
// in only for a reply that fits its 2 KiB pre-chunk buffer, and a longer
// one would leave chunked, with no size for the far end to read to
// (DESIGN.md §9, "The wire").
func serve(w http.ResponseWriter, body []byte, tier string) {
	h := w.Header()
	if v, ok := servedBy[tier]; ok {
		h[ServedByHeader] = v
	} else {
		// A label outside the precomputed set takes the allocating
		// path.
		h.Set(ServedByHeader, tier)
	}
	h["Content-Length"] = decimalValue(len(body))
	h["Content-Type"] = contentTypeOctet
	w.Write(body)
}

// maxBody bounds a POSTed object body.
const maxBody = 64 << 20

// readRetainedBody reads a POSTed object body into the slice the store
// retains.  A declared length past maxBody is refused unread; an undeclared
// body is cut off there, with MaxBytesReader's 413 semantics.
func readRetainedBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.ContentLength > maxBody {
		return nil, &http.MaxBytesError{Limit: maxBody}
	}
	if r.ContentLength >= 0 {
		return readBody(r.Body, r.ContentLength) // read to its declaration and no further
	}
	return readBody(http.MaxBytesReader(w, r.Body, maxBody), -1)
}
