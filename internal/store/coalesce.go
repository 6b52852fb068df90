package store

import (
	"sync"

	"webcache/internal/trace"
)

// Singleflight miss coalescing: concurrent getters of an absent key
// block on one loader call and share its result, so a thundering herd
// on a hot URL costs one origin fetch (the coalesced-fetch suppression
// both cooperative-caching surveys treat as table stakes for a real
// proxy).  The implementation is the standard flight-group shape: a
// small map of in-flight calls keyed by object id, each with a done
// channel the waiters park on.

// Loader fetches an absent object.  It is called at most once per
// flight; the Tag is an opaque caller annotation (the serving tier in
// internal/httpcache) propagated to every coalesced waiter.
type Loader func() (obj Object, tag string, err error)

// LoadOutcome says how GetOrLoad satisfied a request.
type LoadOutcome int

const (
	// OutcomeHit: the object was already cached.
	OutcomeHit LoadOutcome = iota
	// OutcomeLoaded: this caller won the flight and ran the loader.
	OutcomeLoaded
	// OutcomeCoalesced: another caller's in-flight load was shared.
	OutcomeCoalesced
)

// String renders the outcome for logs and tests.
func (o LoadOutcome) String() string {
	switch o {
	case OutcomeHit:
		return "hit"
	case OutcomeLoaded:
		return "loaded"
	case OutcomeCoalesced:
		return "coalesced"
	default:
		return "unknown"
	}
}

// LoadView is GetOrLoad's result.
type LoadView struct {
	Object  Object
	Tag     string // loader annotation (zero on OutcomeHit)
	Outcome LoadOutcome
	// Stored and Evicted are set only for the flight winner
	// (OutcomeLoaded): whether the loaded object was inserted, and
	// what was evicted to make room — the winner destages these.
	// Stored is false for empty or oversized bodies, which are
	// served uncached.
	Stored  bool
	Evicted []Object
}

type flightCall struct {
	done chan struct{}
	dups int // waiters that joined (under flightGroup.mu; tests observe it)
	obj  Object
	tag  string
	err  error
}

type flightGroup struct {
	mu    sync.Mutex
	calls map[trace.ObjectID]*flightCall
}

// GetOrLoad returns the cached object, or loads it exactly once per
// concurrent flight: the winner runs loader, inserts the result
// (before releasing the waiters, so a sustained herd cannot start a
// second load), and reports what to destage; every waiter shares the
// winner's body — and the winner's error, which propagates to all of
// them.
func (s *Store) GetOrLoad(key trace.ObjectID, loader Loader) (LoadView, error) {
	if obj, ok := s.Get(key); ok {
		return LoadView{Object: obj, Outcome: OutcomeHit}, nil
	}
	s.flight.mu.Lock()
	if c, ok := s.flight.calls[key]; ok {
		c.dups++
		s.flight.mu.Unlock()
		<-c.done
		if c.err != nil {
			return LoadView{Outcome: OutcomeCoalesced}, c.err
		}
		if s.coalesced != nil {
			s.coalesced.Inc()
		}
		return LoadView{Object: c.obj, Tag: c.tag, Outcome: OutcomeCoalesced}, nil
	}
	c := &flightCall{done: make(chan struct{})}
	s.flight.calls[key] = c
	s.flight.mu.Unlock()

	if s.loads != nil {
		s.loads.Inc()
	}
	view := LoadView{Outcome: OutcomeLoaded}
	c.obj, c.tag, c.err = loader()
	if c.err == nil {
		view.Object, view.Tag = c.obj, c.tag
		evicted, stored, perr := s.Put(key, c.obj)
		if perr == nil {
			// perr != nil is ErrEmptyObject: serve uncached, Stored
			// stays false.
			view.Stored, view.Evicted = stored, evicted
		}
	}
	s.flight.mu.Lock()
	delete(s.flight.calls, key)
	s.flight.mu.Unlock()
	close(c.done)
	return view, c.err
}
