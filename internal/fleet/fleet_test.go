package fleet

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"webcache/internal/pastry"
	"webcache/internal/trace"
)

func members(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://proxy-%d:8080", i)
	}
	return out
}

func TestRingDeterministic(t *testing.T) {
	// Two rings built from the same member list in different orders
	// must agree on every ownership decision — that is what lets each
	// holder of the list compute the ring locally with no coordination.
	ms := members(5)
	a := NewRingOf(0, ms)
	b := NewRingOf(0, []string{ms[4], ms[3], ms[2], ms[1], ms[0], ms[2]})
	for i := 0; i < 10000; i++ {
		key := trace.ObjectID(rand.Uint64())
		oa, _ := a.OwnerOf(key)
		ob, _ := b.OwnerOf(key)
		if oa != ob {
			t.Fatalf("key %x: owner %q vs %q under insertion-order change", key, oa, ob)
		}
	}
}

func TestRingEmpty(t *testing.T) {
	for _, ms := range [][]string{nil, {""}} {
		if _, ok := NewRingOf(0, ms).OwnerOf(1); ok {
			t.Fatalf("ring over %q claimed an owner", ms)
		}
	}
}

func TestRingBalance(t *testing.T) {
	// With 128 vnodes the per-member share of a large key sample
	// should stay within a loose band of the 1/N mean.
	const n, keys = 8, 200000
	r := NewRingOf(0, members(n))
	counts := make(map[string]int)
	for i := 0; i < keys; i++ {
		o, ok := r.OwnerOf(trace.ObjectID(rand.Uint64()))
		if !ok {
			t.Fatal("no owner")
		}
		counts[o]++
	}
	mean := float64(keys) / n
	for m, c := range counts {
		if ratio := float64(c) / mean; ratio < 0.5 || ratio > 1.5 {
			t.Fatalf("member %s owns %.2fx the mean share (%d keys)", m, ratio, c)
		}
	}
}

func TestFoldMatchesHTTPCacheFolding(t *testing.T) {
	// Pin the folding formula the proxy (pastry.ID.Fold) and the benchmark share.
	// The two words are read from the id's big-endian hex.
	id := pastry.HashString("http://origin/obj/7")
	hex := id.String()
	hi, err := strconv.ParseUint(hex[:16], 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := strconv.ParseUint(hex[16:], 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := trace.ObjectID(hi ^ (lo<<31 | lo>>33))
	if got := Fold(id); got != want {
		t.Fatalf("Fold = %x, want %x", got, want)
	}
}
