package store

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"webcache/internal/store/disk"
	"webcache/internal/trace"
)

// newTiered builds a small memory store over a disk tier in a test
// temp dir.
func newTestTiered(t *testing.T, memCap, diskCap uint64) *Tiered {
	t.Helper()
	mem, err := New(Config{CapacityBytes: memCap, Label: "tiered-test"})
	if err != nil {
		t.Fatal(err)
	}
	dsk, err := disk.Open(disk.Config{Dir: t.TempDir(), CapacityBytes: diskCap})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTiered(mem, dsk, "disk-tag")
	t.Cleanup(func() { tr.Close() })
	return tr
}

func tieredObj(k uint64, n int) Object {
	body := bytes.Repeat([]byte{byte(k)}, n)
	return Object{HexKey: fmt.Sprintf("%032x", k), Body: body, Cost: 1}
}

// An object evicted from the memory tier stays readable through the
// disk log; promotion only happens when the memory tier has free
// room for it.
func TestTieredReadFallsBackToDisk(t *testing.T) {
	tr := newTestTiered(t, 512, 1<<20)
	if _, stored, err := tr.Put(1, tieredObj(1, 300)); !stored || err != nil {
		t.Fatalf("put 1: stored=%v err=%v", stored, err)
	}
	if _, stored, err := tr.Put(2, tieredObj(2, 300)); !stored || err != nil {
		t.Fatalf("put 2: stored=%v err=%v", stored, err)
	}
	if !tr.Sync() {
		t.Fatal("sync failed")
	}
	// 1 was evicted from the 512-byte memory tier to make room for 2.
	if tr.Store.Contains(1) {
		t.Fatal("memory tier still holds the evicted object")
	}
	obj, ok := tr.Get(1)
	if !ok || !bytes.Equal(obj.Body, tieredObj(1, 300).Body) {
		t.Fatalf("disk fallback: ok=%v", ok)
	}
	// No promotion: 300 resident + 300 promoted would exceed 512.
	if tr.Store.Contains(1) {
		t.Fatal("promotion evicted a resident object")
	}
	if !tr.Contains(1) || !tr.Contains(2) || tr.Contains(3) {
		t.Fatal("Contains disagrees with tier contents")
	}
}

// A disk hit with free memory room is promoted back into the memory
// tier.
func TestTieredPromotion(t *testing.T) {
	tr := newTestTiered(t, 1<<20, 1<<20)
	tr.Put(1, tieredObj(1, 300))
	if !tr.Sync() {
		t.Fatal("sync failed")
	}
	// Drop from memory only, leaving the disk copy in place — the
	// state a memory eviction leaves behind.
	mem := tr.Store
	mem.mu.Lock()
	if _, ok := mem.policy.Remove(1); ok {
		delete(mem.bodies, 1)
	}
	mem.mu.Unlock()

	if _, ok := tr.Get(1); !ok {
		t.Fatal("disk tier lost the object")
	}
	if !tr.Store.Contains(1) {
		t.Fatal("disk hit was not promoted despite free memory")
	}
}

// An object too large for the memory tier still persists: stored
// is false (memory refused) but err is nil and the disk tier serves
// it afterwards.
func TestTieredOversizedObjectPersists(t *testing.T) {
	tr := newTestTiered(t, 256, 1<<20)
	evicted, stored, err := tr.Put(7, tieredObj(7, 1024))
	if err != nil || stored || len(evicted) != 0 {
		t.Fatalf("oversized put: evicted=%d stored=%v err=%v", len(evicted), stored, err)
	}
	if !tr.Sync() {
		t.Fatal("sync failed")
	}
	obj, ok := tr.Get(7)
	if !ok || len(obj.Body) != 1024 {
		t.Fatalf("oversized object not servable from disk: ok=%v", ok)
	}
}

// GetOrLoad satisfies a flight from the disk tier without running the
// caller's loader, tagged with the tier's disk tag; a genuine miss
// runs the loader and persists the result.
func TestTieredGetOrLoad(t *testing.T) {
	tr := newTestTiered(t, 256, 1<<20)
	tr.Put(7, tieredObj(7, 1024)) // memory refuses, disk keeps
	if !tr.Sync() {
		t.Fatal("sync failed")
	}

	loaderRan := false
	view, err := tr.GetOrLoad(7, func() (Object, string, error) {
		loaderRan = true
		return Object{}, "", fmt.Errorf("should not run")
	})
	if err != nil || loaderRan {
		t.Fatalf("disk-resident flight ran the loader (err=%v)", err)
	}
	if view.Tag != "disk-tag" || len(view.Object.Body) != 1024 {
		t.Fatalf("flight tag %q, body %d bytes", view.Tag, len(view.Object.Body))
	}

	view, err = tr.GetOrLoad(8, func() (Object, string, error) {
		return tieredObj(8, 100), "origin", nil
	})
	if err != nil || view.Tag != "origin" {
		t.Fatalf("miss flight: tag %q err %v", view.Tag, err)
	}
	if !tr.Sync() {
		t.Fatal("sync failed")
	}
	if !tr.Disk().Contains(8) {
		t.Fatal("loaded object was not persisted to disk")
	}
}

// TestTieredPromotionNeverEvicts races disk-tier promotions against
// Puts on a nearly full memory tier.  A promotion has no caller to hand
// evictions to, so it must take only free room: every object a Put
// stored and no Put reported evicted is still resident at the end.
// Run it under -race with a high -count; the lost object shows up only
// when a Put lands between a promotion's room check and its insert.
func TestTieredPromotionNeverEvicts(t *testing.T) {
	tr := newTestTiered(t, 4<<10, 1<<22)
	const diskKeys = 64 // keys below this live on disk only, until promoted
	for k := uint64(0); k < diskKeys; k++ {
		tr.disk.Put(trace.ObjectID(k), toDisk(tieredObj(k, 16+int(k%5)*8)))
	}
	if !tr.Sync() {
		t.Fatal("sync failed")
	}

	const promoters, putters, puts = 4, 4, 400
	var mu sync.Mutex
	stored, evicted := 0, 0 // Put-range objects stored, and reported evicted
	var putWG, promoteWG sync.WaitGroup
	done := make(chan struct{})
	for p := 0; p < promoters; p++ {
		promoteWG.Add(1)
		go func(p int) {
			defer promoteWG.Done()
			for i := p; ; i += 7 {
				select {
				case <-done:
					return
				default:
				}
				tr.Get(trace.ObjectID(i % diskKeys))
			}
		}(p)
	}
	for w := 0; w < putters; w++ {
		putWG.Add(1)
		go func(w int) {
			defer putWG.Done()
			for i := 0; i < puts; i++ {
				k := uint64(diskKeys + w*puts + i)
				ev, ok, err := tr.Put(trace.ObjectID(k), tieredObj(k, 50+(i*37)%150))
				if err != nil || !ok {
					t.Errorf("put %d: stored=%v err=%v", k, ok, err)
					return
				}
				n := 0
				for _, obj := range ev {
					// HexKey is tieredObj's %032x of the key, so it parses.
					if key, _ := strconv.ParseUint(obj.HexKey, 16, 64); key >= diskKeys {
						n++
					}
				}
				mu.Lock()
				stored, evicted = stored+1, evicted+n
				mu.Unlock()
			}
		}(w)
	}
	putWG.Wait()
	close(done)
	promoteWG.Wait()

	resident, promoted := 0, 0
	for _, it := range tr.Store.Items() {
		if it.Key >= diskKeys {
			resident++
		} else {
			promoted++
		}
	}
	if resident != stored-evicted || tr.Store.Len() != resident+promoted {
		t.Fatalf("%d stored - %d evictions reported = %d, but %d resident (Len %d, %d promoted)",
			stored, evicted, stored-evicted, resident, tr.Store.Len(), promoted)
	}
}
