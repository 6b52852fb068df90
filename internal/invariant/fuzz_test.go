package invariant

import (
	"fmt"
	"testing"

	"webcache/internal/cache"
	"webcache/internal/pastry"
	"webcache/internal/trace"
)

// FuzzCheckedPolicy replays an op script against every replacement
// policy wrapped in CheckedPolicy and fails on any recorded violation:
// the fuzzer searches for an operation interleaving under which a
// policy's accounting (used-sum, heap/map agreement, inflation
// monotonicity) goes wrong.  Object ids are folded into a small space
// and sizes kept near the capacity so eviction, rejection (Size==0,
// oversized) and re-admission paths all fire.
func FuzzCheckedPolicy(f *testing.F) {
	f.Add([]byte{0, 1, 4, 0, 2, 4, 0, 3, 4, 1, 1, 0, 0, 1, 4, 2, 2, 0, 3, 3, 0})
	f.Add([]byte{0, 5, 0, 0, 5, 9, 0, 6, 8, 0, 7, 8, 1, 6, 0, 0, 8, 8})
	f.Fuzz(func(t *testing.T, script []byte) {
		// Half the ids lie below the LFU history's universe, on the
		// direct path; the rest hash.
		policies := map[string]func() cache.Policy{
			"lru":         func() cache.Policy { return cache.NewLRU(32) },
			"lfu":         func() cache.Policy { return cache.NewPerfectLFUShared(32, cache.NewHistory(24)) },
			"greedy-dual": func() cache.Policy { return cache.NewGreedyDual(32) },
			"gdsf":        func() cache.Policy { return cache.NewGDSF(32) },
		}
		for name, mk := range policies {
			chk := New(nil)
			p := WrapPolicy(mk(), chk, "fuzz")
			for i := 0; i+2 < len(script); i += 3 {
				op, kb, sb := script[i], script[i+1], script[i+2]
				obj := trace.ObjectID(kb % 48)
				switch op % 4 {
				case 0:
					if !p.Access(obj) {
						p.Add(cache.Entry{
							Obj:  obj,
							Size: uint32(sb % 9), // 0 exercises graceful rejection
							Cost: float64(sb%5) + 0.5,
						})
					}
				case 1:
					p.Remove(obj)
				case 2:
					p.Access(obj)
				case 3:
					p.Peek(obj)
					p.Contains(obj)
					_ = p.Used()
					_ = p.Len()
				}
			}
			if err := chk.Err(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(script) >= 3 && chk.Checks() == 0 {
				t.Fatalf("%s: wrapper ran no checks", name)
			}
		}
	})
}

// FuzzRingChurn replays a join/fail/leave script against a Pastry
// overlay, stabilizes, and requires CheckRing to find a fully
// consistent ring: correct leaf sets, leaf-set symmetry, and
// route-vs-owner agreement.  This searches for churn orderings the
// repair protocols mishandle.
func FuzzRingChurn(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 0, 0, 3, 3, 1, 0, 4, 2, 5})
	f.Add([]byte{2, 0, 2, 1, 2, 2, 2, 3, 0, 9, 0, 8, 3, 0, 3, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		ov, err := pastry.New(pastry.Config{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ov.JoinN(4, "fuzz-boot"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(script); i += 2 {
			op, pick := script[i], script[i+1]
			switch op % 4 {
			case 0, 1:
				// Bias toward joins so rings grow, but cap the size to
				// keep stabilization cheap under long fuzz inputs.
				if ov.Len() < 128 {
					id := pastry.HashString(fmt.Sprintf("fuzz/%d/%d", i, pick))
					_ = ov.Join(id) // duplicate ids are legal to reject
				}
			case 2:
				if ids := ov.IDs(); len(ids) > 1 {
					ov.Fail(ids[int(pick)%len(ids)])
				}
			case 3:
				if ids := ov.IDs(); len(ids) > 1 {
					ov.Leave(ids[int(pick)%len(ids)])
				}
			}
		}
		ov.Stabilize()
		chk := New(nil)
		CheckRing(chk, ov, 16)
		if err := chk.Err(); err != nil {
			t.Fatal(err)
		}
	})
}
