// Package trace defines the request-trace model that drives the
// cooperative caching simulator, together with text and binary codecs
// and first-order trace statistics.
//
// A trace is an ordered stream of (time, client, object, size)
// references.  The paper's simulator (§5.1) is trace-driven: it replays
// either synthetic ProWGen workloads or the UCB Home-IP trace.  The
// schemes only observe the reference stream, so this package is the
// single point of truth for what a "workload" is.
package trace

import (
	"errors"
	"fmt"
)

// ObjectID identifies a distinct Web object.  In real deployments this
// is the SHA-1 of the URL; in the simulator object identity is already
// canonical, and the Pastry layer derives 128-bit ids from it on demand.
type ObjectID uint64

// ClientID identifies a client (browser) machine.  Clients are assigned
// to proxies by the simulator (client c belongs to proxy c mod P under
// the paper's "statistically identical populations" assumption).
type ClientID uint32

// Request is one HTTP reference in a trace.
type Request struct {
	// Time is seconds since the start of the trace.  The caching
	// schemes themselves are latency-model driven and ignore absolute
	// time; it exists for trace realism (UCB day/night modulation) and
	// for time-windowed statistics.
	Time uint32
	// Client is the issuing client.
	Client ClientID
	// Object is the referenced object.
	Object ObjectID
	// Size is the object size in cache units.  The paper assumes
	// unit-size objects (§5.1); generators emit Size==1 by default but
	// the policies support variable sizes.
	Size uint32
}

// Trace is an in-memory request trace.
type Trace struct {
	// Requests in replay order.
	Requests []Request
	// NumClients is one more than the largest ClientID (the client
	// universe size the generator targeted).
	NumClients int
	// NumObjects is one more than the largest ObjectID referenced.
	NumObjects int
}

// Validate checks internal consistency: non-empty, client/object ids in
// range, sizes positive, and time non-decreasing.
func (t *Trace) Validate() error {
	if len(t.Requests) == 0 {
		return errors.New("trace: empty trace")
	}
	if t.NumClients <= 0 || t.NumObjects <= 0 {
		return fmt.Errorf("trace: bad universe: clients=%d objects=%d", t.NumClients, t.NumObjects)
	}
	var prev uint32
	for i, r := range t.Requests {
		if int(r.Client) >= t.NumClients {
			return fmt.Errorf("trace: request %d: client %d out of range [0,%d)", i, r.Client, t.NumClients)
		}
		if int(r.Object) >= t.NumObjects {
			return fmt.Errorf("trace: request %d: object %d out of range [0,%d)", i, r.Object, t.NumObjects)
		}
		if r.Size == 0 {
			return fmt.Errorf("trace: request %d: zero size", i)
		}
		if r.Time < prev {
			return fmt.Errorf("trace: request %d: time goes backwards (%d < %d)", i, r.Time, prev)
		}
		prev = r.Time
	}
	return nil
}

// Recount recomputes NumClients and NumObjects from the request stream.
// Generators call it after assembly; codecs call it after decode.
func (t *Trace) Recount() {
	maxC, maxO := -1, -1
	for _, r := range t.Requests {
		if int(r.Client) > maxC {
			maxC = int(r.Client)
		}
		if int(r.Object) > maxO {
			maxO = int(r.Object)
		}
	}
	t.NumClients = maxC + 1
	t.NumObjects = maxO + 1
}

// Slice returns a shallow sub-trace of requests [lo, hi).
func (t *Trace) Slice(lo, hi int) *Trace {
	return &Trace{
		Requests:   t.Requests[lo:hi],
		NumClients: t.NumClients,
		NumObjects: t.NumObjects,
	}
}

// Len returns the number of requests.
func (t *Trace) Len() int { return len(t.Requests) }
