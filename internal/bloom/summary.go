package bloom

import "sync"

// Summary is a digest of a changing key set kept current as the set
// changes, Summary Cache's own design: a counting filter takes each key
// in and out as its cache does, and a plain bit view is kept in step
// with it, bit i set iff counter i is non-zero.  Publishing is a copy
// of the view's words in the Filter wire form: no key is hashed and no
// counter read.
//
// A key held twice (a proxy's store and its directory) is added twice
// and stays until both are removed.  Summary has a lock of its own,
// taken last: its callers order each change under theirs and add or
// remove the key before releasing it.
type Summary struct {
	mu    sync.Mutex
	count Counting
	view  Filter // view.n is the number of keys held
	keys  int    // the capacity count and view are sized for
	p     float64
}

// NewSummary makes an empty summary sized for keys keys at
// false-positive rate p.
func NewSummary(keys int, p float64) *Summary {
	keys = max(keys, 1)
	m, k := OptimalParams(keys, p)
	return &Summary{
		count: Counting{counters: make([]uint8, (m+1)/2), m: m, k: k},
		view:  Filter{bits: make([]uint64, (m+63)/64), m: m, k: k},
		keys:  keys,
		p:     p,
	}
}

// Add counts key in.
func (s *Summary) Add(key uint64) {
	h1, h2 := hashes(key)
	s.mu.Lock()
	for i := 0; i < s.count.k; i++ {
		if idx := (h1 + uint64(i)*h2) % s.count.m; s.count.inc(idx) {
			s.view.bits[idx/64] |= 1 << (idx % 64)
		}
	}
	s.view.n++
	s.mu.Unlock()
}

// Remove counts key out.  It must be held: removing a key that is not
// corrupts the summary, as with any counting filter.
func (s *Summary) Remove(key uint64) {
	h1, h2 := hashes(key)
	s.mu.Lock()
	for i := 0; i < s.count.k; i++ {
		if idx := (h1 + uint64(i)*h2) % s.count.m; s.count.dec(idx) {
			s.view.bits[idx/64] &^= 1 << (idx % 64)
		}
	}
	if s.view.n > 0 {
		s.view.n--
	}
	s.mu.Unlock()
}

// Full reports whether s holds more keys than it is sized for, past
// which its false-positive rate rises above p.
func (s *Summary) Full() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.view.n > uint64(s.keys)
}

// Grown returns an empty summary for s to grow into: s's capacity
// doubled until it fits the keys s holds.  It is nil when s is not
// full.  The caller counts every key s holds into it and hands it to
// Replace, and nothing may change the set in between.
func (s *Summary) Grown() *Summary {
	s.mu.Lock()
	n, keys := s.view.n, s.keys
	s.mu.Unlock()
	if n <= uint64(keys) {
		return nil
	}
	for uint64(keys) < n {
		keys *= 2
	}
	return NewSummary(keys, s.p)
}

// Replace makes s the summary next, which Grown made and the caller
// has counted s's keys into.
func (s *Summary) Replace(next *Summary) {
	s.mu.Lock()
	s.count, s.view, s.keys = next.count, next.view, next.keys
	s.mu.Unlock()
}

// MarshalBinary publishes s in the Filter wire form, a copy of its bit
// view.
func (s *Summary) MarshalBinary() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.view.MarshalBinary()
}
