package httpcache

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"webcache/internal/bloom"
	"webcache/internal/p2p"
	"webcache/internal/store"
	"webcache/internal/trace"
)

// publishDigest asks px's /digest handler for its digest, as a pull does.
func publishDigest(t *testing.T, px *Proxy) []byte {
	t.Helper()
	w := httptest.NewRecorder()
	px.handleDigest(w, httptest.NewRequest("GET", "/digest", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/digest answered %d", w.Code)
	}
	return w.Body.Bytes()
}

// rebuiltDigest is what the digest of px would be if it were built
// afresh at m and k from what /peer-lookup can serve: every key the
// store holds and every key the directory lists, a key held by both
// added twice, as the summary counts it.
func rebuiltDigest(t *testing.T, px *Proxy, m uint64, k int) []byte {
	t.Helper()
	f, err := bloom.New(m, k)
	if err != nil {
		t.Fatal(err)
	}
	px.mu.Lock()
	for key := range px.dir {
		f.Add(uint64(key))
	}
	px.mu.Unlock()
	px.store.Keys(func(key trace.ObjectID) { f.Add(uint64(key)) }, func() {})
	wire, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestDigestSummaryUnderConcurrentChanges changes what a proxy holds
// from four goroutines at once while a fifth publishes its digest:
// store inserts and the evictions they make, pass-down receipts that
// list keys and unlist others, and stale-entry repairs.  The directory
// passes the summary's first size, so it grows while the others run.
// Under the race detector (make check) this holds the locking; at the
// end the published digest must be the one a rebuild from the store and
// the directory gives.
func TestDigestSummaryUnderConcurrentChanges(t *testing.T) {
	const objects, bodyBytes = 4000, 64
	px := newProxy(t, Options{CapacityBytes: 200 * bodyBytes})
	body := bytes.Repeat([]byte("b"), bodyBytes)
	key := func(i int) trace.ObjectID { return trace.ObjectID(i) }

	var changers sync.WaitGroup
	var done atomic.Bool
	change := func(f func(i int)) {
		changers.Add(1)
		go func() {
			defer changers.Done()
			for i := range objects {
				f(i)
			}
		}()
	}
	change(func(i int) { // store inserts, each evicting once full
		px.store.Put(key(i), store.Object{Body: body, Cost: 1})
	})
	change(func(i int) { // receipts: list 1 << 20 + i, unlist what 1 500 receipts ago listed
		rec := p2p.Receipt{Stored: key(1<<20 + i), StoredOK: i%7 != 0}
		if i >= 1500 {
			rec.Evicted = []trace.ObjectID{key(1<<20 + i - 1500)}
		}
		px.applyReceipt(rec, body)
	})
	change(func(i int) { // repairs of stale entries, some listed and some not
		if i%3 == 0 {
			px.mu.Lock()
			px.unlist(key(1<<20 + i - 100))
			px.mu.Unlock()
		}
	})
	change(func(i int) { // the store's keys listed too: one key held twice
		if i%5 == 0 {
			px.mu.Lock()
			px.list(key(i), 0)
			px.mu.Unlock()
		}
	})
	var publisher sync.WaitGroup
	publisher.Add(1)
	publishes := 0
	go func() {
		defer publisher.Done()
		for !done.Load() {
			w := httptest.NewRecorder()
			px.handleDigest(w, httptest.NewRequest("GET", "/digest", nil))
			if w.Code != http.StatusOK {
				t.Errorf("/digest answered %d", w.Code)
				return
			}
			publishes++
		}
	}()
	changers.Wait()
	done.Store(true)
	publisher.Wait()

	t.Logf("%d publishes during the changes", publishes)
	m := checkAgainstRebuild(t, px, "after the concurrent changes")
	if m <= bloom.NewForCapacity(digestKeys, digestFPRate).M() {
		t.Errorf("the summary never grew: m = %d with %d keys listed", m, px.snapshotStats().DirEntries)
	}

	// A growth recounts the summary from the store and the directory,
	// which hides any change that went uncounted before it.  So change
	// them again with nothing racing and no growth: the set only
	// shrinks or holds.  Half the receipts' listings go, the store
	// evicts 400 keys for 400 new ones, and a receipt lists one key and
	// drops another.
	for i := 0; i < objects; i += 2 {
		px.mu.Lock()
		px.unlist(key(1<<20 + i))
		px.mu.Unlock()
	}
	for i := objects; i < objects+400; i++ {
		px.store.Put(key(i), store.Object{Body: body, Cost: 1})
	}
	px.applyReceipt(p2p.Receipt{Stored: key(1 << 21), StoredOK: true, Evicted: []trace.ObjectID{key(1<<20 + objects - 1)}}, body)
	if checkAgainstRebuild(t, px, "after the quiet changes") != m {
		t.Error("the summary grew while the set shrank")
	}
}

// checkAgainstRebuild publishes px's digest, holds it to a rebuild at
// its size from what px holds, and returns that size.
func checkAgainstRebuild(t *testing.T, px *Proxy, when string) uint64 {
	t.Helper()
	got := publishDigest(t, px)
	var f bloom.Filter
	if err := f.UnmarshalBinary(got); err != nil {
		t.Fatal(err)
	}
	if want := rebuiltDigest(t, px, f.M(), f.K()); !bytes.Equal(got, want) {
		t.Errorf("%s the digest differs from a rebuild over the store's %d keys and the directory's %d",
			when, px.store.Len(), px.snapshotStats().DirEntries)
	}
	return f.M()
}
