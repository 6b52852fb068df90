package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Squid native access.log ingestion.  The paper's system sits at the
// proxy, and the natural real-world input for the simulator is a Squid
// access log:
//
//	timestamp elapsed client action/code size method URL ident hierarchy/from type
//	1066036250.129 345 10.0.0.5 TCP_MISS/200 8192 GET http://a/x - DIRECT/1.2.3.4 text/html
//
// ReadSquid converts such a log into a Trace: client addresses and
// URLs are interned to dense ids, sizes are rounded up to cache units,
// and timestamps are rebased to the first request.

// squidUnitBytes is the cache unit object sizes round up to (1 KB).
const squidUnitBytes = 1024

// SquidOptions controls the conversion.  Only GET requests with a 2xx
// or 3xx status are ingested; the rest are noise for caching studies.
type SquidOptions struct {
	// UnitSize forces Size=1 regardless of the logged byte count,
	// matching the paper's equal-size assumption.
	UnitSize bool
}

// SquidResult reports what ReadSquid ingested and skipped.
type SquidResult struct {
	Trace   *Trace
	Lines   int
	Skipped int
	// Clients and Objects map the dense ids back to addresses/URLs
	// (index = id).
	Clients []string
	Objects []string
}

// ReadSquid parses a Squid native-format access log.
func ReadSquid(r io.Reader, opts SquidOptions) (*SquidResult, error) {
	res := &SquidResult{Trace: &Trace{}}
	clientIDs := map[string]ClientID{}
	objectIDs := map[string]ObjectID{}

	type raw struct {
		ts     float64
		client ClientID
		object ObjectID
		size   uint32
	}
	var rows []raw

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		res.Lines++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			res.Skipped++
			continue
		}
		f := strings.Fields(text)
		if len(f) < 7 {
			return nil, fmt.Errorf("trace: squid line %d: %d fields, want >= 7", line, len(f))
		}
		ts, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: squid line %d: bad timestamp: %v", line, err)
		}
		if !strings.EqualFold(f[5], "GET") || !cacheableStatus(f[3]) {
			res.Skipped++
			continue
		}
		szBytes, err := strconv.ParseInt(f[4], 10, 64)
		if err != nil || szBytes < 0 {
			return nil, fmt.Errorf("trace: squid line %d: bad size %q", line, f[4])
		}
		client, ok := clientIDs[f[2]]
		if !ok {
			client = ClientID(len(res.Clients))
			clientIDs[f[2]] = client
			res.Clients = append(res.Clients, f[2])
		}
		url := canonicalURL(f[6])
		object, ok := objectIDs[url]
		if !ok {
			object = ObjectID(len(res.Objects))
			objectIDs[url] = object
			res.Objects = append(res.Objects, url)
		}
		size := uint32(1)
		if !opts.UnitSize {
			units := (szBytes + squidUnitBytes - 1) / squidUnitBytes
			if units < 1 {
				units = 1
			}
			size = uint32(units)
		}
		rows = append(rows, raw{ts: ts, client: client, object: object, size: size})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: squid log contained no usable requests (%d lines, %d skipped)", res.Lines, res.Skipped)
	}
	// Logs are written at completion time and can be mildly out of
	// order; the simulator wants replay order.
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].ts < rows[j].ts })
	t0 := rows[0].ts
	for _, rw := range rows {
		res.Trace.Requests = append(res.Trace.Requests, Request{
			Time:   uint32(rw.ts - t0),
			Client: rw.client,
			Object: rw.object,
			Size:   rw.size,
		})
	}
	res.Trace.Recount()
	return res, nil
}

// cacheableStatus accepts Squid action/code fields whose HTTP status
// is 2xx or 3xx.
func cacheableStatus(actionCode string) bool {
	slash := strings.LastIndexByte(actionCode, '/')
	if slash < 0 || slash+1 >= len(actionCode) {
		return false
	}
	code, err := strconv.Atoi(actionCode[slash+1:])
	if err != nil {
		return false
	}
	return code >= 200 && code < 400
}

// canonicalURL strips the fragment and normalizes the scheme/host case
// so the same object is not counted twice.
func canonicalURL(u string) string {
	if i := strings.IndexByte(u, '#'); i >= 0 {
		u = u[:i]
	}
	// Lowercase scheme://host only; paths stay case-sensitive.
	if i := strings.Index(u, "://"); i >= 0 {
		rest := u[i+3:]
		if j := strings.IndexByte(rest, '/'); j >= 0 {
			return strings.ToLower(u[:i+3]+rest[:j]) + rest[j:]
		}
		return strings.ToLower(u)
	}
	return u
}
