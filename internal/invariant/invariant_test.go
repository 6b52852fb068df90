package invariant

import (
	"strings"
	"testing"

	"webcache/internal/cache"
	"webcache/internal/directory"
	"webcache/internal/obs"
	"webcache/internal/trace"
)

func TestNilCheckerIsDisabled(t *testing.T) {
	var c *Checker
	if c.Enabled() {
		t.Fatal("nil checker reports enabled")
	}
	c.observe(5)
	c.violatef("cache", "x", "boom")
	if !c.assertf(false, "cache", "x", "boom") {
		// assertf still returns the condition so call sites can chain.
	}
	if c.Checks() != 0 || c.ViolationCount() != 0 || c.Violations() != nil || c.Err() != nil {
		t.Fatal("nil checker recorded state")
	}

	p := cache.NewGreedyDual(10)
	if got := WrapPolicy(p, nil, "t"); got != p {
		t.Fatal("WrapPolicy(nil checker) did not return the unwrapped policy")
	}
	d := directory.NewExact()
	if got := WrapDirectory(d, nil, "t"); got != d {
		t.Fatal("WrapDirectory(nil checker) did not return the unwrapped directory")
	}
	if NewClusterAccountant(nil, "t") != nil {
		t.Fatal("NewClusterAccountant(nil checker) != nil")
	}
	var acct *ClusterAccountant
	acct.RecordFailure([]trace.ObjectID{1})
	acct.Reconcile(nil)
	CheckRing(nil, nil, 4)
}

func TestCheckerRecordsViolations(t *testing.T) {
	reg := obs.NewRegistry("test")
	c := New(reg)
	if !c.Enabled() {
		t.Fatal("checker not enabled")
	}
	if !c.assertf(true, "cache", "ok", "fine") {
		t.Fatal("passing assert returned false")
	}
	if c.assertf(false, "cache", "used-sum", "want %d", 7) {
		t.Fatal("failing assert returned true")
	}
	if c.Checks() != 2 {
		t.Fatalf("Checks() = %d, want 2", c.Checks())
	}
	if c.ViolationCount() != 1 {
		t.Fatalf("ViolationCount() = %d, want 1", c.ViolationCount())
	}
	v := c.Violations()[0]
	if v.Layer != "cache" || v.Rule != "used-sum" || v.Detail != "want 7" {
		t.Fatalf("violation = %+v", v)
	}
	if got := v.String(); got != "cache/used-sum: want 7" {
		t.Fatalf("String() = %q", got)
	}
	err := c.Err()
	if err == nil || !strings.Contains(err.Error(), "cache/used-sum") {
		t.Fatalf("Err() = %v", err)
	}
	if reg.Counter("check.violations").Value() != 1 {
		t.Fatal("check.violations counter not incremented")
	}
}

func TestCheckerCapsRecordedViolations(t *testing.T) {
	c := New(nil)
	for i := 0; i < maxRecordedViolations+10; i++ {
		c.violatef("cache", "x", "violation %d", i)
	}
	if len(c.Violations()) != maxRecordedViolations {
		t.Fatalf("recorded %d violations, want cap %d", len(c.Violations()), maxRecordedViolations)
	}
	if c.ViolationCount() != int64(maxRecordedViolations+10) {
		t.Fatalf("ViolationCount() = %d, want %d", c.ViolationCount(), maxRecordedViolations+10)
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "10 more") {
		t.Fatalf("Err() should note dropped violations, got %v", err)
	}
}

// exercisePolicy drives a wrapped policy through a deterministic
// add/access/remove churn.
func exercisePolicy(p cache.Policy) {
	for i := 0; i < 400; i++ {
		obj := trace.ObjectID(i % 37)
		if !p.Access(obj) {
			p.Add(cache.Entry{Obj: obj, Size: uint32(1 + i%9), Cost: 1 + float64(i%5)})
		}
		if i%11 == 0 {
			p.Remove(trace.ObjectID((i + 5) % 37))
		}
		p.Contains(trace.ObjectID(i % 41))
		p.Peek(trace.ObjectID(i % 43))
	}
}

func TestCheckedPolicyCleanOnRealPolicies(t *testing.T) {
	mk := map[string]func() cache.Policy{
		"greedy-dual": func() cache.Policy { return cache.NewGreedyDual(64) },
		"gdsf":        func() cache.Policy { return cache.NewGDSF(64) },
		"lru":         func() cache.Policy { return cache.NewLRU(64) },
		"lfu":         func() cache.Policy { return cache.NewPerfectLFU(64) },
	}
	for name, f := range mk {
		t.Run(name, func(t *testing.T) {
			chk := New(nil)
			p := WrapPolicy(f(), chk, "test")
			exercisePolicy(p)
			// Rejections the wrapper must accept as legitimate.
			p.Add(cache.Entry{Obj: 9001, Size: 0, Cost: 1})
			p.Add(cache.Entry{Obj: 9002, Size: 1000, Cost: 1})
			if err := chk.Err(); err != nil {
				t.Fatalf("violations on a correct policy: %v", err)
			}
			if chk.Checks() == 0 {
				t.Fatal("no checks ran")
			}
		})
	}
}

// lyingPolicy wraps a real policy but misreports Used, to prove the
// oracle notices broken accounting.
type lyingPolicy struct{ cache.Policy }

func (l lyingPolicy) Used() uint64 { return l.Policy.Used() + 1 }

func TestCheckedPolicyCatchesBrokenAccounting(t *testing.T) {
	chk := New(nil)
	p := WrapPolicy(lyingPolicy{cache.NewGreedyDual(64)}, chk, "test")
	p.Add(cache.Entry{Obj: 1, Size: 4, Cost: 1})
	if chk.ViolationCount() == 0 {
		t.Fatal("misreported Used() went unnoticed")
	}
	found := false
	for _, v := range chk.Violations() {
		if v.Rule == "used-sum" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a used-sum violation, got %v", chk.Violations())
	}
}

// forgetfulPolicy drops every add on the floor without reporting it.
type forgetfulPolicy struct{ cache.Policy }

func (f forgetfulPolicy) Add(e cache.Entry) []cache.Entry { return nil }

func TestCheckedPolicyCatchesSilentDrop(t *testing.T) {
	chk := New(nil)
	p := WrapPolicy(forgetfulPolicy{cache.NewGreedyDual(64)}, chk, "test")
	p.Add(cache.Entry{Obj: 1, Size: 4, Cost: 1})
	found := false
	for _, v := range chk.Violations() {
		if v.Rule == "silent-drop" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a silent-drop violation, got %v", chk.Violations())
	}
}

func TestCheckedPolicyUnwrap(t *testing.T) {
	inner := cache.NewGreedyDual(8)
	w := WrapPolicy(inner, New(nil), "test").(*CheckedPolicy)
	if w.Unwrap() != inner {
		t.Fatal("Unwrap did not return the inner policy")
	}
	if w.Name() != inner.Name() || w.Capacity() != inner.Capacity() {
		t.Fatal("delegation broken")
	}
}

func TestCheckedDirectoryCleanOnRealDirectories(t *testing.T) {
	for _, mk := range []func() directory.Directory{
		func() directory.Directory { return directory.NewExact() },
		func() directory.Directory { return directory.NewBloom(256, 0.01) },
	} {
		chk := New(nil)
		d := WrapDirectory(mk(), chk, "test")
		for i := 0; i < 100; i++ {
			d.Add(trace.ObjectID(i))
		}
		for i := 0; i < 200; i++ {
			d.MayContain(trace.ObjectID(i))
		}
		for i := 0; i < 50; i++ {
			d.Remove(trace.ObjectID(i))
		}
		for i := 50; i < 100; i++ {
			d.MayContain(trace.ObjectID(i))
		}
		if err := chk.Err(); err != nil {
			t.Fatalf("%s: violations on a correct directory: %v", d.Name(), err)
		}
	}
}

var _ directory.Directory = (*CheckedDirectory)(nil)

// denyingDirectory forgets everything: MayContain always answers false,
// violating the no-false-negative guarantee.
type denyingDirectory struct{ directory.Directory }

func (d denyingDirectory) MayContain(trace.ObjectID) bool { return false }

func TestCheckedDirectoryCatchesFalseNegative(t *testing.T) {
	chk := New(nil)
	d := WrapDirectory(denyingDirectory{directory.NewExact()}, chk, "test")
	d.Add(7)
	found := false
	for _, v := range chk.Violations() {
		if v.Rule == "no-false-negative" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a no-false-negative violation, got %v", chk.Violations())
	}
}

func TestReconcileDirectory(t *testing.T) {
	chk := New(nil)
	d := directory.NewExact()
	d.Add(1)
	d.Add(2)
	resident := map[trace.ObjectID]bool{1: true, 2: true}
	ReconcileDirectory(chk, "test", d,
		func(o trace.ObjectID) bool { return resident[o] }, []trace.ObjectID{1, 2})
	if err := chk.Err(); err != nil {
		t.Fatalf("violations on a consistent directory: %v", err)
	}

	// Stale entry: directory lists 3 which the cluster does not hold.
	d.Add(3)
	ReconcileDirectory(chk, "test", d,
		func(o trace.ObjectID) bool { return resident[o] }, []trace.ObjectID{1, 2})
	if chk.ViolationCount() == 0 {
		t.Fatal("stale directory entry went unnoticed")
	}

	// False negative: cluster holds 4 which the directory denies.
	chk2 := New(nil)
	ReconcileDirectory(chk2, "test", d,
		func(o trace.ObjectID) bool { return true }, []trace.ObjectID{4})
	if chk2.ViolationCount() == 0 {
		t.Fatal("directory false negative went unnoticed")
	}
}
