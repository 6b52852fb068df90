package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"webcache/internal/prowgen"
	"webcache/internal/trace"
)

// TestResultDigestPinned pins a SHA-256 over the JSON-marshalled
// Result of every scheme on a fixed ProWGen trace and configuration.
// The simulator is single-threaded and seed-deterministic, so this
// digest must never move unless a simulator change is intended — in
// particular, refactors of the live data plane (internal/store,
// internal/httpcache) must leave it bit-identical.  When a deliberate
// simulator change lands, re-pin by running the test and copying the
// digest from the failure message.
func TestResultDigestPinned(t *testing.T) {
	// Re-pinned when Result gained the fleet-telemetry fields (new
	// zero-valued JSON keys; every numeric outcome was verified
	// unchanged).
	const pinned = "99dfd9166b291c8de1f535293b5c8c1114b4d7a04fd03cc39bfd947972bf635d"

	tr := testTrace(t, 1)
	h := sha256.New()
	for _, s := range AllSchemes() {
		res := run(t, tr, Config{
			Scheme:            s,
			ProxyCacheFrac:    0.3,
			ClientsPerCluster: 16,
			Seed:              1,
		})
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s:%s\n", s, blob)
	}
	got := hex.EncodeToString(h.Sum(nil))
	if got != pinned {
		t.Fatalf("simulator results digest moved:\n  got  %s\n  want %s\n"+
			"every scheme's Result changed bit-for-bit identity; if this is an intended simulator change, re-pin the constant",
			got, pinned)
	}
}

// TestChurnResultDigestPinned pins what TestResultDigestPinned leaves
// out: the schemes that route through Pastry (Hier-GD, Squirrel) while
// client caches crash and re-join.  The first two runs are the repo
// benchmark's sim_churn workload at seed 1 (bench/sizes.go), the last
// two add a flash-churn storm and hot-object replication on the small
// test trace.  (The Squirrel engine has no maintenance hook, so
// FailEvery does not reach it; its row pins it as sim_churn runs it.)
// The digest is over the whole JSON Result, so it moves
// on a change to P2P.RouteHops or Messages that leaves every serve and
// byte in place — which bench/'s goldens (requests, sources, bytes,
// latency) do not notice.  A change to internal/pastry or internal/p2p
// that only makes a decision cheaper must leave every row as it is.
func TestChurnResultDigestPinned(t *testing.T) {
	churn, err := prowgen.Generate(prowgen.Config{NumRequests: 300_000, NumObjects: 10_000, NumClients: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	small := testTrace(t, 1)
	for _, tc := range []struct {
		name   string
		tr     *trace.Trace
		cfg    Config
		pinned string
	}{
		{"hier-gd-churn", churn,
			Config{Scheme: HierGD, Seed: 1, FailEvery: 500, ReplaceFailed: true, Directory: DirBloom},
			"e00a07ecbe1ada6f4a5842d65452890365e06291c748084acdd6955318718b73"},
		{"squirrel-churn", churn,
			Config{Scheme: Squirrel, Seed: 1, FailEvery: 500, ReplaceFailed: true, Directory: DirBloom},
			"bcb0365da89700f215c8b20118c5435699cbb65c08a26e60be26f6209b4f0e22"},
		{"hier-gd-flash-churn", small,
			Config{Scheme: HierGD, Seed: 1, ProxyCacheFrac: 0.3, FailEvery: 500, ReplaceFailed: true, Directory: DirBloom, FlashChurnAt: 20_000},
			"d7ebef91ccbb9c0369eadafc335c29a915f21d70bda1d724c86eeb37d90c9849"},
		{"hier-gd-hot-replication", small,
			Config{Scheme: HierGD, Seed: 1, ProxyCacheFrac: 0.3, FailEvery: 500, ReplaceFailed: true, ReplicateHotAfter: 4},
			"f95c8cd8415f56d709f2fe89ba04529f0327c739d93e27594555329175da6e0e"},
	} {
		// Subtests, so one replay can be profiled alone:
		// -run TestChurnResultDigestPinned/squirrel-churn -cpuprofile ...
		t.Run(tc.name, func(t *testing.T) {
			blob, err := json.Marshal(run(t, tc.tr, tc.cfg))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			if got := hex.EncodeToString(sum[:]); got != tc.pinned {
				t.Errorf("result digest moved:\n  got  %s\n  want %s", got, tc.pinned)
			}
		})
	}
}
