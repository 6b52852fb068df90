package invariant

import "webcache/internal/trace"

// lookupDirectory is directory.Directory's method set.  Naming it here
// rather than importing the package keeps internal/directory out of
// what the live proxy, which links this package, links.
type lookupDirectory interface {
	Name() string
	Add(obj trace.ObjectID)
	Remove(obj trace.ObjectID)
	MayContain(obj trace.ObjectID) bool
	Len() int
	MemoryBytes() uint64
	Objects() []trace.ObjectID
}

// CheckedDirectory wraps a lookup directory with a shadow set of every
// object the proxy told it about, and enforces the §4.2 contract:
//
//   - no false negatives, ever: an object recorded via Add (and not
//     Removed) must satisfy MayContain — for the Bloom directory this
//     is the guarantee that makes a directory miss authoritative;
//   - the Exact-Directory is exact: MayContain answers true iff the
//     object is recorded (no false positives either);
//   - Len() tracks the net adds.
//
// It implements directory.Directory and is transparent to callers.
type CheckedDirectory struct {
	inner lookupDirectory
	chk   *Checker
	label string

	shadow map[trace.ObjectID]struct{}
	// exact marks directories that promise zero false positives.
	exact bool
}

// WrapDirectory wraps d, a directory.Directory, with invariant
// checking; one named "exact" is held to exactness.  With a nil Checker
// it returns d unchanged.
func WrapDirectory(d lookupDirectory, chk *Checker, label string) lookupDirectory {
	if chk == nil {
		return d
	}
	return &CheckedDirectory{
		inner:  d,
		chk:    chk,
		label:  label,
		shadow: make(map[trace.ObjectID]struct{}),
		exact:  d.Name() == "exact",
	}
}

// Name implements directory.Directory.
func (w *CheckedDirectory) Name() string { return w.inner.Name() }

// Add implements directory.Directory.
func (w *CheckedDirectory) Add(obj trace.ObjectID) {
	w.inner.Add(obj)
	w.shadow[obj] = struct{}{}
	w.chk.assertf(w.inner.MayContain(obj), "directory", "no-false-negative",
		"%s(%s): object %d invisible immediately after Add", w.inner.Name(), w.label, obj)
	w.lenAgree()
}

// Remove implements directory.Directory.
func (w *CheckedDirectory) Remove(obj trace.ObjectID) {
	w.inner.Remove(obj)
	delete(w.shadow, obj)
	if w.exact {
		w.chk.assertf(!w.inner.MayContain(obj), "directory", "exact-remove",
			"%s(%s): object %d still visible after Remove", w.inner.Name(), w.label, obj)
	}
	w.lenAgree()
}

// MayContain implements directory.Directory.
func (w *CheckedDirectory) MayContain(obj trace.ObjectID) bool {
	got := w.inner.MayContain(obj)
	_, recorded := w.shadow[obj]
	if recorded {
		w.chk.assertf(got, "directory", "no-false-negative",
			"%s(%s): recorded object %d reported absent", w.inner.Name(), w.label, obj)
	} else if w.exact {
		w.chk.assertf(!got, "directory", "exact-positive",
			"%s(%s): unrecorded object %d reported present", w.inner.Name(), w.label, obj)
	}
	return got
}

// lenAgree asserts Len tracks the net adds.
func (w *CheckedDirectory) lenAgree() {
	w.chk.assertf(w.inner.Len() == len(w.shadow), "directory", "len-agree",
		"%s(%s): Len()=%d but %d objects recorded", w.inner.Name(), w.label, w.inner.Len(), len(w.shadow))
}

// Len implements directory.Directory.
func (w *CheckedDirectory) Len() int { return w.inner.Len() }

// MemoryBytes implements directory.Directory.
func (w *CheckedDirectory) MemoryBytes() uint64 { return w.inner.MemoryBytes() }

// Objects implements directory.Directory.
func (w *CheckedDirectory) Objects() []trace.ObjectID { return w.inner.Objects() }

// ReconcileDirectory checks a directory against the ground-truth
// holdings of the cluster it indexes: every directory entry must name
// a resident object (Exact must be exact up to in-flight churn the
// caller already repaired) and every resident object the proxy was
// told about must be visible.  contains reports ground-truth
// residency; resident enumerates it.
func ReconcileDirectory(chk *Checker, label string, dir lookupDirectory,
	contains func(trace.ObjectID) bool, resident []trace.ObjectID) {
	if chk == nil {
		return
	}
	for _, obj := range dir.Objects() {
		chk.assertf(contains(obj), "directory", "stale-entry",
			"%s(%s): directory lists %d which the cluster does not hold", dir.Name(), label, obj)
	}
	for _, obj := range resident {
		chk.assertf(dir.MayContain(obj), "directory", "no-false-negative",
			"%s(%s): cluster holds %d but the directory denies it", dir.Name(), label, obj)
	}
}
