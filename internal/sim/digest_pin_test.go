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
	// Re-pinned when Result's P2P stats lost their zero-valued count of
	// hot-object replicas.  Every pin equals what the simulator printed
	// before that change with the field tagged json:"-", so no outcome
	// moved.
	const pinned = "cac43e3749aa80c3755d9d4a74b73986e59cabc748b1e47b33dee57908aa967c"

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
// benchmark's sim_churn workload at seed 1 (bench/sizes.go), the
// third adds the chaos suite's flash-churn storm (half of each
// cluster's live clients at the trace's midpoint) on the small test
// trace.  The rows after those pin the engine paths that share
// code across schemes: Summary-Cache digests under SC, SC-EC and
// Hier-GD; then the chaos suite's directory poisoning and Byzantine
// serves at its own magnitudes, each with its defense on (the sweep
// every 250 requests, 0.95 sampled verification).
// (The Squirrel engine has no maintenance hook, so
// FailEvery does not reach it; its row pins it as sim_churn runs it.)
// The last rows pin what TestResultDigestPinned's seven schemes do not
// reach: Squirrel on the small trace, FC and FC-EC's size-density
// placement on the variable-size trace, and NC-EC's heap evicting
// several objects per Add on the variable-size trace.  The next four pin the P2P store where a
// diversion depends on how much room is left rather than on whether
// any is: Hier-GD and Squirrel on the variable-size trace, Hier-GD
// there under churn, and Hier-GD with diversion off.  The two after
// them pin FC placements where tie order and the first-copy bonus
// decide, at capacities that bind: FC and FC-EC over four proxies (the
// bonus sums over three peers).  The digest is over the whole JSON
// Result, so it moves on a change to P2P.RouteHops or Messages that leaves every
// serve and byte in place — which bench/'s goldens (requests, sources,
// bytes, latency) do not notice.  A change to internal/pastry or internal/p2p
// that only makes a decision cheaper must leave every row as it is.
func TestChurnResultDigestPinned(t *testing.T) {
	churn, err := prowgen.Generate(prowgen.Config{NumRequests: 300_000, NumObjects: 10_000, NumClients: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	small := testTrace(t, 1)
	sized := variableSizeTrace(t)
	for _, tc := range []struct {
		name   string
		tr     *trace.Trace
		cfg    Config
		pinned string
	}{
		{"hier-gd-churn", churn,
			Config{Scheme: HierGD, Seed: 1, FailEvery: 500, ReplaceFailed: true, Directory: DirBloom},
			"2a9c981f440938c3b6297b830e8ee64518e68a122a0b71183919e2dd280e8eb6"},
		{"squirrel-churn", churn,
			Config{Scheme: Squirrel, Seed: 1, FailEvery: 500, ReplaceFailed: true, Directory: DirBloom},
			"ce5136bd128e913743e976b909ddcfb909869662f0468a41cd965f07f8dcca38"},
		{"hier-gd-flash-churn", small,
			Config{Scheme: HierGD, Seed: 1, ProxyCacheFrac: 0.3, FailEvery: 500, ReplaceFailed: true, Directory: DirBloom, Faults: Faults{Churn: true}},
			"5274058de558e2a37893c72f3c361cf7d41028a43fb727434788a83a7719913b"},
		{"sc-digests", small,
			Config{Scheme: SC, Seed: 1, ProxyCacheFrac: 0.3, DigestInterval: 1_000},
			"e24e15c742bbda68a5f1c1f9ee0fd7037cc496147d339c1dfa5a159dea31d721"},
		{"sc-ec-digests", small,
			Config{Scheme: SCEC, Seed: 1, ProxyCacheFrac: 0.3, DigestInterval: 1_000},
			"34f7e158e3f33aac7a58ae61aa5b3b6667f4499f8c0d5fa73271c46b2ca9193f"},
		{"hier-gd-digests", small,
			Config{Scheme: HierGD, Seed: 1, ProxyCacheFrac: 0.3, DigestInterval: 1_000, Directory: DirBloom},
			"998a50335023092236d00c45a9070701a12ea63080751a7b56152e863187c49e"},
		{"hier-gd-poison-sweep", small,
			Config{Scheme: HierGD, Seed: 1, ProxyCacheFrac: 0.3, Faults: Faults{Poison: true}, Hardened: true},
			"b5310b5ac423241baa67da59672102f6744411a43d3afd2f027a48de2b09d2ef"},
		{"hier-gd-byzantine", small,
			Config{Scheme: HierGD, Seed: 1, ProxyCacheFrac: 0.3, Faults: Faults{Byzantine: true}, Hardened: true},
			"e2242da2f979224302209715dfc099cdc3077e75d4ba607a0a90c4dc9edb30f0"},
		{"squirrel", small,
			Config{Scheme: Squirrel, Seed: 1, ProxyCacheFrac: 0.3, ClientsPerCluster: 16},
			"83bd09a04bcafe13dfe7a208939eb107e79c6e764f7d7d47f0b49944d4fd7f02"},
		{"fc-variable-sizes", sized,
			Config{Scheme: FC, Seed: 1, ProxyCacheFrac: 0.2},
			"89c651b6611c2e03a741a2340e109bcd4d3f12add72afeb3d73113b36ac272b3"},
		{"fc-ec-variable-sizes", sized,
			Config{Scheme: FCEC, Seed: 1, ProxyCacheFrac: 0.2},
			"28f89b7ffd254be69c37c92ed6efcee586ba137457d49ed41d0369a1dac14cb7"},
		{"nc-ec-variable-sizes", sized,
			Config{Scheme: NCEC, Seed: 1, ProxyCacheFrac: 0.2},
			"70bec2f2e565f286a2049b878402bec3c385679e2d6eee1b7b41f7d9083fb9c9"},
		{"hier-gd-variable-sizes", sized,
			Config{Scheme: HierGD, Seed: 1, ProxyCacheFrac: 0.2},
			"5ebb685458b070eac6a88ed724fce5a4c4e6a7ed3ea55d385e7da51226e1e4e6"},
		{"squirrel-variable-sizes", sized,
			Config{Scheme: Squirrel, Seed: 1, ProxyCacheFrac: 0.2},
			"b3c88571ecc3af13dc094840d1f8e402cb3b53ae1dceca1e684774d714ef6eac"},
		{"hier-gd-churn-variable-sizes", sized,
			Config{Scheme: HierGD, Seed: 1, ProxyCacheFrac: 0.2, FailEvery: 500, ReplaceFailed: true},
			"0a6ff7ec9ee67d336c3b0d00a58a70444db7d2dba8afd3dcad00798210c21619"},
		{"hier-gd-no-diversion", small,
			Config{Scheme: HierGD, Seed: 1, ProxyCacheFrac: 0.3, DisableDiversion: true},
			"348d42db986c71446b77d0236eda6171a8b079efba8ea2cb517da7c03320f733"},
		{"fc-four-proxies", small,
			Config{Scheme: FC, Seed: 1, NumProxies: 4, ClientsPerCluster: 50, ProxyCacheFrac: 0.05},
			"eeb083e8ec2752d05bef6659c6857c4172d473add2fdcd7854898beac12ffb93"},
		{"fc-ec-four-proxies", small,
			Config{Scheme: FCEC, Seed: 1, NumProxies: 4, ClientsPerCluster: 50, ProxyCacheFrac: 0.05},
			"7651ffb60720a5e4b7edf2b735a40b22d1f7af353bb586af4ff67353f8927d77"},
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
