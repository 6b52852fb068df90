package sim

import (
	"fmt"
	"testing"

	"webcache/internal/invariant"
	"webcache/internal/obs"
	"webcache/internal/prowgen"
	"webcache/internal/trace"
)

// simCompareTrace is the repo benchmark's sim_compare and sim_churn
// trace at seed 1 (bench/sizes.go).
func simCompareTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := prowgen.Generate(prowgen.Config{NumRequests: 300_000, NumObjects: 10_000, NumClients: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestColdServesPinned pins what the origin oracle counts on
// sim_compare at seed 1: serves by a cache tier of an object origin had
// not yet served in the run.  FC and FC-EC place each window's objects
// before it is replayed, so every serve they make at the default
// fraction is cold, and most at 0.1; every scheme that fills on a miss
// reads 0.  When FC fills on a miss, its rows flip to 0 in their own
// commit and no result digest moves.
func TestColdServesPinned(t *testing.T) {
	tr := simCompareTrace(t)
	for _, tc := range []struct {
		scheme Scheme
		frac   float64 // 0 = the default
		cold   float64
	}{
		{NC, 0, 0}, {SC, 0, 0}, {FC, 0, 300_000}, {NCEC, 0, 0},
		{SCEC, 0, 0}, {FCEC, 0, 300_000}, {HierGD, 0, 0}, {Squirrel, 0, 0},
		{FC, 0.1, 153_145}, {FCEC, 0.1, 287_464},
	} {
		// Checked replays are slow; two at a time halve the wall time.
		t.Run(fmt.Sprintf("%v-%v", tc.scheme, tc.frac), func(t *testing.T) {
			t.Parallel()
			reg := obs.NewRegistry("cold")
			chk := invariant.New(reg)
			run(t, tr, Config{Scheme: tc.scheme, ProxyCacheFrac: tc.frac, Seed: 1, Check: chk})
			if got := reg.Values()["check.cold_serves"]; got != tc.cold {
				t.Errorf("check.cold_serves = %v, want %v", got, tc.cold)
			}
			if err := chk.Err(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestChurnVictimsPinned pins who sim_churn's schedule fails at seed
// 1.  Hier-GD crashes a client and joins a fresh one every 500
// requests; the Squirrel engine has no maintenance hook, so the same
// configuration fails no one.  One churn schedule for both engines
// flips the Squirrel row in its own commit.
func TestChurnVictimsPinned(t *testing.T) {
	tr := simCompareTrace(t)
	for _, tc := range []struct {
		scheme                        Scheme
		failed, ticks, lost, handoffs int
	}{
		{HierGD, 200, 599, 852, 504},
		{Squirrel, 0, 0, 0, 0},
	} {
		res := run(t, tr, Config{Scheme: tc.scheme, Seed: 1, FailEvery: 500, ReplaceFailed: true, Directory: DirBloom})
		if res.FailedClients != tc.failed || res.MaintenanceTicks != tc.ticks ||
			res.P2P.LostOnFailure != tc.lost || res.P2P.Handoffs != tc.handoffs {
			t.Errorf("%v: failed %d clients in %d ticks, lost %d, handed off %d; want %d, %d, %d, %d",
				tc.scheme, res.FailedClients, res.MaintenanceTicks, res.P2P.LostOnFailure, res.P2P.Handoffs,
				tc.failed, tc.ticks, tc.lost, tc.handoffs)
		}
	}
}
