package httpcache

import (
	"errors"
	"net/http"
	"net/url"
	"sync/atomic"

	"webcache/internal/obs"
	"webcache/internal/pastry"
	"webcache/internal/store"
	"webcache/internal/trace"
)

// This file is the paper's lookup cascade as the proxy runs it: proxy
// cache, own P2P client cache by way of the directory (§4.2),
// cooperating proxies (§4.5), origin.  The order is data, the table
// cascade builds once per proxy, and walk is the one loop that walks
// it, for a /fetch and for a cooperating proxy's /peer-lookup alike.

// fetchReq is one /fetch as a tier sees it.  Tiers get it by value: a
// pointer handed through a tier's func value would move it to the heap,
// and a memory hit allocates nothing (TestFetchHitPathAllocs).
type fetchReq struct {
	// r gives a tier the requester's context, which a hop made on its
	// behalf descends from, and its headers.
	r      *http.Request
	rawURL string // a /fetch's url parameter as sent, still escaped
	id     pastry.ID
	folded trace.ObjectID
	st     *obs.SpanTrace
}

// served is a tier's answer when it has the object.
type served struct {
	body []byte
	by   string        // the X-Served-By label
	hits *atomic.Int64 // the counter the serve is booked under
	// diverted marks a client-cache serve by one of the owner's
	// neighbours, where an ifFree store had diverted the object (§4.3).
	diverted bool
	// evicted is what caching the body at this proxy displaced; the loop
	// passes it down into the client caches.
	evicted []store.Object
}

// errMiss is a tier's plain "not here".
var errMiss = errors.New("miss")

// tier is one rung of the cascade: whom to ask for the object, and how.
type tier struct {
	// spans names the span an attempt runs under, by attempt, the last
	// name repeating; cat is its category, §5.1's latency component.
	spans []string
	cat   string
	// from lists whom to ask, in order: nobody when the tier has no
	// reason to think anyone has the object.  A tier that looks inside
	// the proxy has none, and the one place to ask, here.
	from func(q fetchReq) []*peer
	// admit, when set, is put to each peer as its turn comes; one it
	// refuses is passed over without a span.
	admit func(q fetchReq, to *peer) bool
	// ask asks the n-th peer for the object.  A nil error is a serve;
	// the last tier's error is what a 502 reports.
	ask func(q fetchReq, to *peer, n int) (served, error)
	// missed, when set, runs once everyone from listed has been passed
	// over or asked in vain.
	missed func(q fetchReq)
}

var here = []*peer{nil}

// walk asks the tiers in order until one serves.  Every attempt runs
// under a span closed End when it serves and EndWasted when it does
// not, whichever tier it belongs to.  Without a serve the error is the
// last attempt's.
func walk(q fetchReq, tiers []tier) (s served, err error) {
	err = errMiss
	for i := range tiers {
		t := &tiers[i]
		asked := here
		if t.from != nil {
			asked = t.from(q)
		}
		for n, to := range asked {
			if t.admit != nil && !t.admit(q, to) {
				continue
			}
			span := q.st.StartSpan(t.spans[min(n, len(t.spans)-1)], t.cat)
			if s, err = t.ask(q, to, n); err != nil {
				span.EndWasted()
				continue
			}
			span.End()
			return s, nil
		}
		if len(asked) > 0 && t.missed != nil {
			t.missed(q)
		}
	}
	return served{}, err
}

// handleFetch walks the whole cascade.  The serving tier's counter, the
// pass-down of what caching the body evicted, the reply and the trace's
// label are written here and nowhere else.  Evictions go down before
// the reply does; serving first and destaging after would reverse the
// order here.
func (p *Proxy) handleFetch(w http.ResponseWriter, r *http.Request) {
	// The key is the objectId of the unescaped URL (§4.1), hashed from a
	// stack buffer: only the origin tier needs the URL as a string.
	raw := queryRaw(r.URL.RawQuery, "url")
	var buf [256]byte
	dec, ok := appendUnescaped(buf[:0], raw)
	if len(dec) == 0 || !ok {
		http.Error(w, "missing url", http.StatusBadRequest)
		return
	}
	p.stats.requests.Add(1)
	id := pastry.HashID(dec)
	q := fetchReq{r: r, rawURL: raw, id: id, folded: fold(id), st: traceStart(p.tracer, r, "fetch")}
	s, err := walk(q, p.tiers)
	if err != nil {
		// The origin is the last tier and is always asked: err is its.
		q.st.FinishWall("error")
		http.Error(w, "origin fetch: "+err.Error(), http.StatusBadGateway)
		return
	}
	s.hits.Add(1)
	if s.diverted {
		p.stats.divertedHits.Add(1)
	}
	for _, ev := range s.evicted {
		p.passDown(ev)
	}
	if s.by == TierOrigin {
		// The served-by count the aggregator's hit ratio is built on: a
		// coalesced waiter's reply is an origin reply as the requester
		// sees it.
		p.stats.originReplies.Add(1)
	}
	serve(w, s.body, s.by)
	q.st.FinishWall(s.by)
}

// handlePeerLookup serves a cooperating proxy (§4.5) from the rungs of
// the cascade that are this proxy's own: its caches, then its client
// caches, whose copy it relays (DESIGN.md §2 item 6), verified and with
// a stale entry repaired as for a /fetch.  The asking proxy books the
// serve.
func (p *Proxy) handlePeerLookup(w http.ResponseWriter, r *http.Request) {
	id, _, err := parseKey(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	q := fetchReq{r: r, id: id, folded: fold(id), st: traceStart(p.tracer, r, "peer-lookup")}
	s, err := walk(q, p.local)
	if err != nil {
		q.st.FinishWall("miss")
		http.NotFound(w, r)
		return
	}
	by := TierPeerProxy
	if s.by == TierClientCache {
		by = TierPeerP2P
	}
	serve(w, s.body, by)
	q.st.FinishWall(by)
}

// cascade builds the tier table, and its head that the proxy serves
// from what it holds itself.
func (p *Proxy) cascade() (local, tiers []tier) {
	// repair unlists a directory entry no cache backs any more (a
	// crashed daemon, a raced eviction).
	repair := func(q fetchReq) {
		p.mu.Lock()
		p.unlist(q.folded)
		p.mu.Unlock()
	}

	local = []tier{{
		// 1. Proxy cache.
		spans: []string{"proxy.cache"}, cat: "Tl",
		ask: func(q fetchReq, _ *peer, _ int) (served, error) {
			obj, ok := p.store.Get(q.folded)
			if !ok {
				return served{}, errMiss
			}
			return served{body: obj.Body, by: TierProxy, hits: &p.stats.proxyHits}, nil
		},
	}, {
		// 2. Own P2P client cache, per the lookup directory (§4.2): the
		// ring owner, then its neighbours, where an ifFree store may have
		// diverted the object (§4.3).  When none of them has it the entry
		// is stale and is repaired.
		spans: []string{"client.fetch", "client.fetch.divert"}, cat: "Tp2p",
		from: func(q fetchReq) []*peer {
			p.mu.Lock()
			_, listed := p.dir[q.folded]
			p.mu.Unlock()
			if !listed {
				return nil
			}
			owner := p.ring.owner(q.id)
			if owner == nil {
				repair(q) // listed, and no cache left that could hold it
				return nil
			}
			return p.ring.candidates(make([]*peer, 0, 3), owner)
		},
		ask: func(q fetchReq, to *peer, n int) (served, error) {
			body, ok := p.lanFetch(q.r.Context(), to, q.id, q.st.TraceID())
			if !ok {
				return served{}, errMiss
			}
			if !p.verifyBody(q.folded, body) {
				// Digest mismatch, a byzantine serve: a strike on the
				// daemon's ledger and a miss, for the next candidate or
				// the origin to make good.
				to.ledger.digestFails.Add(1)
				return served{}, errMiss
			}
			return served{body: body, by: TierClientCache, hits: &p.stats.clientHits, diverted: n > 0}, nil
		},
		missed: repair,
	}}
	return local, append(local, tier{
		// 3. Cooperating proxies, each behind its error-rate breaker (a
		// peer that keeps failing at the transport level is passed over,
		// the request degrading toward origin, until its cooldown admits
		// a probe) and its digest (one that says the peer cannot serve
		// the object passes it over, digest.go).
		spans: []string{"peer.lookup"}, cat: "Tc",
		from: func(fetchReq) []*peer {
			return p.coop
		},
		admit: func(q fetchReq, to *peer) bool {
			if !p.peerAllowed(to) {
				p.stats.breakerSkipped.Add(1)
				return false
			}
			return p.digestAdmits(q, to)
		},
		ask: func(q fetchReq, to *peer, _ int) (served, error) {
			rep, err := p.hop(q.r.Context(), to, request{route: routePeerLookup, key: q.id}, nil, q.st.TraceID())
			if err != nil {
				return served{}, err
			}
			if rep.status != http.StatusOK && rep.status != http.StatusNotFound {
				p.peerFailed(to)
				return served{}, errMiss
			}
			p.peerOK(to) // it answered, if only that it has not got the object
			if rep.status == http.StatusNotFound {
				if to.digest.filter.Load() != nil {
					p.stats.digestFalsePos.Add(1) // it was asked on its digest's word
				}
				return served{}, errMiss
			}
			// An empty body is served without being cached
			// (store.ErrEmptyObject), which evicts nothing.
			evicted, _, _ := p.store.Put(q.folded, store.Object{HexKey: q.id.String(), Body: rep.body, Cost: remoteCost})
			return served{body: rep.body, by: TierRemoteProxy, hits: &p.stats.remoteHits, evicted: evicted}, nil
		},
	}, tier{
		// 4. Origin, through the coalescer: concurrent misses on one URL
		// share a single origin fetch.  The flight's winner inserts and
		// has the evictions to pass down; a waiter serves the winner's
		// body and has none.
		spans: []string{"origin.fetch"}, cat: "Ts",
		ask: func(q fetchReq, _ *peer, _ int) (served, error) {
			view, err := p.store.GetOrLoad(q.folded, func() (store.Object, string, error) {
				// handleFetch refused a malformed escape.
				u, _ := url.QueryUnescape(q.rawURL)
				body, err := p.originFetch(u)
				return store.Object{HexKey: q.id.String(), Body: body, Cost: originCost}, TierOrigin, err
			})
			if err != nil {
				return served{}, err
			}
			s := served{body: view.Object.Body, by: view.Tag, hits: &p.stats.originFetch, evicted: view.Evicted}
			switch view.Outcome {
			case store.OutcomeHit:
				// Another request's insert landed between the first tier
				// and here: a proxy cache hit after all.
				s.by, s.hits = TierProxy, &p.stats.proxyHits
			case store.OutcomeCoalesced:
				s.hits = &p.stats.coalesced
			}
			return s, nil
		},
	})
}
