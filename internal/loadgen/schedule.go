package loadgen

import (
	"fmt"
	"net/url"
	"strconv"

	"webcache/internal/trace"
)

// ScheduledRequest is one trace reference resolved onto the live
// topology: which proxy front-end to hit and the full fetch URL.
type ScheduledRequest struct {
	Index  int
	Client trace.ClientID
	Object trace.ObjectID
	Proxy  int
	URL    string
	// TraceID, when non-empty, rides the request as the
	// httpcache.TraceHeader so every daemon the fetch touches joins the
	// same span trace.  The driver stamps it per sampled request.
	TraceID string
	// Class, when non-empty, rides the request as the
	// httpcache.SLOHeader so the proxy accounts it against that SLO
	// class's error budget.  Options.ClassFor stamps it at issue time.
	Class string
}

// Schedule is a trace rendered into issuable requests, in trace order.
type Schedule struct {
	Requests   []ScheduledRequest
	NumProxies int
}

// BuildSchedule resolves every trace request onto the topology:
// objects become origin URLs ("<origin>/obj/<id>"), and each client is
// routed to proxyFor(client) — pass sim.Config.ProxyFor so live
// requests land on the same front-end the simulator's replay would
// use, which is what makes the calibration comparison meaningful.
//
// A request's URL is "<proxy>/fetch?url=" followed by the query-escaped
// origin URL.  url.QueryEscape works byte by byte and leaves decimal
// digits alone, so the escaped URL is the escaped "<origin>/obj/"
// followed by the bare id: each proxy's prefix is escaped once, and a
// request costs one append of its id and one allocation, its URL's
// bytes.  The URLs are not interned per (proxy, object): a schedule
// that shares them holds a smaller live heap, which makes the
// collector run more often during the timed replay.
func BuildSchedule(tr *trace.Trace, proxyURLs []string, originURL string,
	proxyFor func(trace.ClientID) int) (*Schedule, error) {
	if len(proxyURLs) == 0 {
		return nil, fmt.Errorf("loadgen: no proxy URLs")
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	s := &Schedule{
		Requests:   make([]ScheduledRequest, 0, len(tr.Requests)),
		NumProxies: len(proxyURLs),
	}
	objPrefix := url.QueryEscape(originURL + "/obj/")
	prefixes := make([]string, len(proxyURLs))
	for p, proxy := range proxyURLs {
		prefixes[p] = proxy + "/fetch?url=" + objPrefix
	}
	var id [20]byte // the decimal digits of a uint64
	for i, r := range tr.Requests {
		p := proxyFor(r.Client)
		if p < 0 || p >= len(proxyURLs) {
			return nil, fmt.Errorf("loadgen: request %d: client %d mapped to proxy %d of %d",
				i, r.Client, p, len(proxyURLs))
		}
		s.Requests = append(s.Requests, ScheduledRequest{
			Index:  i,
			Client: r.Client,
			Object: r.Object,
			Proxy:  p,
			URL:    prefixes[p] + string(strconv.AppendUint(id[:0], uint64(r.Object), 10)),
		})
	}
	return s, nil
}
