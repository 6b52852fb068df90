package store

import (
	"webcache/internal/trace"

	"webcache/internal/store/disk"
)

// Tiered composes the memory Store with the persistent disk
// tier (internal/store/disk) behind the same Interface: reads check
// memory first and fall back to the disk log (promoting a disk hit
// back into memory when it fits without evicting anything); writes
// land in memory synchronously and ride the disk tier's write-behind
// queue for persistence.  Memory evictions still surface to the
// caller unchanged — the paper's destaging of proxy evictions to
// client caches is orthogonal to persistence, and an evicted object
// usually stays readable from disk.
type Tiered struct {
	*Store
	disk *disk.Store
	// diskTag annotates GetOrLoad results satisfied from the disk tier
	// (the serving-tier string in internal/httpcache).
	diskTag string
}

// NewTiered wraps mem with dsk as its persistent second tier.
// diskTag is the LoadView.Tag reported when a GetOrLoad flight is
// satisfied from disk instead of the caller's loader.
func NewTiered(mem *Store, dsk *disk.Store, diskTag string) *Tiered {
	return &Tiered{Store: mem, disk: dsk, diskTag: diskTag}
}

// Disk exposes the disk tier (metrics publication, recovery results,
// shutdown draining).
func (t *Tiered) Disk() *disk.Store { return t.disk }

// toDisk converts a store object to the disk package's mirror type.
func toDisk(obj Object) disk.Object {
	return disk.Object{HexKey: obj.HexKey, Body: obj.Body, Cost: obj.Cost}
}

// fromDisk converts back.
func fromDisk(obj disk.Object) Object {
	return Object{HexKey: obj.HexKey, Body: obj.Body, Cost: obj.Cost}
}

// Get returns the object from memory, or from the disk log on a
// memory miss.  A disk hit is promoted back into memory only when the
// memory tier has free room — promotion must not evict hotter resident
// objects on behalf of a colder disk one, and it has no caller to pass
// evictions down to.
func (t *Tiered) Get(key trace.ObjectID) (Object, bool) {
	if obj, ok := t.Store.Get(key); ok {
		return obj, true
	}
	dobj, ok := t.disk.Get(key)
	if !ok {
		return Object{}, false
	}
	obj := fromDisk(dobj)
	t.Store.putIfFree(key, obj)
	return obj, true
}

// Put stores the object in memory (returning the memory tier's
// evictions for destaging, exactly like the unlayered store) and
// enqueues it for disk persistence.  An object too large for the
// memory tier still persists to disk — the disk tier is typically
// orders of magnitude larger — so stored=false no longer means the
// object is unservable.
func (t *Tiered) Put(key trace.ObjectID, obj Object) (evicted []Object, stored bool, err error) {
	evicted, stored, err = t.Store.Put(key, obj)
	if err != nil {
		return evicted, stored, err
	}
	t.disk.Put(key, toDisk(obj))
	return evicted, stored, nil
}

// GetOrLoad serves from memory, then from the disk tier inside the
// singleflight (so a herd on a disk-resident key costs one log read,
// tagged diskTag), and only then runs the caller's loader; a loaded
// object is persisted to disk before the flight's waiters are
// released.
func (t *Tiered) GetOrLoad(key trace.ObjectID, loader Loader) (LoadView, error) {
	return t.Store.GetOrLoad(key, func() (Object, string, error) {
		if dobj, ok := t.disk.Get(key); ok {
			return fromDisk(dobj), t.diskTag, nil
		}
		obj, tag, err := loader()
		if err == nil {
			t.disk.Put(key, toDisk(obj))
		}
		return obj, tag, err
	})
}

// Contains reports whether key is resident in either tier without
// touching replacement metadata.
func (t *Tiered) Contains(key trace.ObjectID) bool {
	return t.Store.Contains(key) || t.disk.Contains(key)
}

// Sync blocks until every accepted Put is durable on disk.
func (t *Tiered) Sync() bool { return t.disk.Sync() }

// Close drains the disk tier's write-behind queue and closes its
// files; the memory tier needs no teardown.
func (t *Tiered) Close() error { return t.disk.Close() }

// PublishMetrics publishes both tiers' occupancy gauges.
func (t *Tiered) PublishMetrics() {
	t.Store.PublishMetrics()
	t.disk.PublishMetrics()
}

// CheckInvariants runs both tiers' checks: the memory store's
// body-map reconciliation and the disk tier's memory-index ↔
// disk-log agreement (against the store's attached Checker).
func (t *Tiered) CheckInvariants() {
	t.Store.CheckInvariants()
	if t.Store.check.Enabled() {
		t.disk.CheckInvariants(t.Store.check)
	}
}

var _ Interface = (*Tiered)(nil)
