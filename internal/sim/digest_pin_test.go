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
// test trace.  The rows after those pin the engine paths that share
// code across schemes: Summary-Cache digests under SC, SC-EC and
// Hier-GD, directory poisoning with its sweep, Byzantine serves with
// sampled verification, and the fleet engine across a partition.
// (The Squirrel engine has no maintenance hook, so
// FailEvery does not reach it; its row pins it as sim_churn runs it.)
// The last rows pin what TestResultDigestPinned's seven schemes do not
// reach: Squirrel on the small trace, FC and FC-EC's size-density
// placement on the variable-size trace, FC's trailing window, the
// LFU-family engine under the LRU, in-cache LFU and greedy-dual base
// policies, and NC-EC's heap evicting several objects per Add on the
// variable-size trace.  The final four pin the P2P store where a
// diversion depends on how much room is left rather than on whether
// any is: Hier-GD and Squirrel on the variable-size trace, Hier-GD
// there under churn, and Hier-GD with diversion off.  The three after
// them pin FC placements where tie order and the first-copy bonus
// decide, at capacities that bind: FC-EC's trailing window, FC-EC's
// single pool (both of a proxy's tiers at Tl, so one object ties with
// itself across two tiers), and FC over four proxies (the bonus sums
// over three peers).  The digest is over the whole JSON Result, so it
// moves on a change to P2P.RouteHops or Messages that leaves every
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
		{"sc-digests", small,
			Config{Scheme: SC, Seed: 1, ProxyCacheFrac: 0.3, DigestInterval: 1_000},
			"63c011210831c05a0560bfac1bd304ddbba5dbbe4408330180802e454868d7ec"},
		{"sc-ec-digests", small,
			Config{Scheme: SCEC, Seed: 1, ProxyCacheFrac: 0.3, DigestInterval: 1_000},
			"dc9dc1db9678226ba26bcffcfb859b4fea73051d4be880a8cbfb2a976f024b53"},
		{"hier-gd-digests", small,
			Config{Scheme: HierGD, Seed: 1, ProxyCacheFrac: 0.3, DigestInterval: 1_000, Directory: DirBloom},
			"2cc3f18cf2b7dfa755380ad4e94181d22b12320bcc35a9868ff6ddef5fbc4157"},
		{"hier-gd-poison-sweep", small,
			Config{Scheme: HierGD, Seed: 1, ProxyCacheFrac: 0.3, PoisonEvery: 700, DirSweepEvery: 5_000},
			"3a0b734e4486513e3f2a19cbc73566c69e9b4d4bac8486a62c87a580e380eb7c"},
		{"hier-gd-byzantine", small,
			Config{Scheme: HierGD, Seed: 1, ProxyCacheFrac: 0.3, ByzantineFraction: 0.1, VerifyFraction: 0.5},
			"f01d18edd2f150a40aba443358fd46801c440d3c772557d619dd65e745c80ae3"},
		{"fleet-partition", small,
			Config{Scheme: HierGD, Seed: 1, ProxyCacheFrac: 0.3, ClientsPerCluster: 16, FleetSize: 4, FleetReplication: 2, FleetPartitionAt: 30_000},
			"43e6ce2815ca127445315699f56be430cec32a39b30b2430f1703548dd4e7699"},
		{"squirrel", small,
			Config{Scheme: Squirrel, Seed: 1, ProxyCacheFrac: 0.3, ClientsPerCluster: 16},
			"e160a76e7b1e4c7111ed28e993b099a5160578e685bf9fdd6f2598524231132e"},
		{"fc-variable-sizes", sized,
			Config{Scheme: FC, Seed: 1, ProxyCacheFrac: 0.2},
			"cecf7db332cad8920a0952dcccbd295f6e99e20811a7deb63b2255850657df2a"},
		{"fc-ec-variable-sizes", sized,
			Config{Scheme: FCEC, Seed: 1, ProxyCacheFrac: 0.2},
			"43bd474dd63c37af1d79843d801a8a7523c0ceeae93d4343be99404b04b307e6"},
		{"fc-trailing", small,
			Config{Scheme: FC, Seed: 1, ProxyCacheFrac: 0.3, FCTrailing: true},
			"7f53b4e1898ecbb7ef983cf98bde67b20b771e1cdecb4fb29efd8fab332a65bc"},
		{"nc-lru", small,
			Config{Scheme: NC, Seed: 1, ProxyCacheFrac: 0.3, BasePolicy: BaseLRU},
			"4d263bf0663d63cb414b318468329dd845658cf5c6da6419c975fc2e730bcf60"},
		{"nc-ec-lfu-in-cache", small,
			Config{Scheme: NCEC, Seed: 1, ProxyCacheFrac: 0.3, BasePolicy: BaseLFUInCache},
			"5e083f17513c2122b75dac58f893f9db16c668cfb6f2ed27df29d97855ba58f5"},
		{"sc-ec-greedy-dual", small,
			Config{Scheme: SCEC, Seed: 1, ProxyCacheFrac: 0.3, BasePolicy: BaseGreedyDual},
			"f0f25cd0646d9fcde75674342d97d753f00dbddff4f94cf999f6e6ba18971901"},
		{"nc-ec-variable-sizes", sized,
			Config{Scheme: NCEC, Seed: 1, ProxyCacheFrac: 0.2},
			"8e472fd11ac8d5850ec4164b2cffef59af80c153565bc018bcb07a671f912c3f"},
		{"hier-gd-variable-sizes", sized,
			Config{Scheme: HierGD, Seed: 1, ProxyCacheFrac: 0.2},
			"86fdfdce20688c7e467c6232cc1529fa10926c67e5d1eee3dfbf1f9b0ac5ea33"},
		{"squirrel-variable-sizes", sized,
			Config{Scheme: Squirrel, Seed: 1, ProxyCacheFrac: 0.2},
			"a46969beac841780640d29c35fbb71fcff2d8b014e213530e84ed819147d6739"},
		{"hier-gd-churn-variable-sizes", sized,
			Config{Scheme: HierGD, Seed: 1, ProxyCacheFrac: 0.2, FailEvery: 500, ReplaceFailed: true},
			"8405d0f8b5f9c1fa439cacbe0629858ee311faf0aae309a8965de5c80c746b07"},
		{"hier-gd-no-diversion", small,
			Config{Scheme: HierGD, Seed: 1, ProxyCacheFrac: 0.3, DisableDiversion: true},
			"cd31f766aec70e68a4cc6688866a03d1b8eb0876547a6b74e7da4b63cac870d9"},
		{"fc-ec-trailing", small,
			Config{Scheme: FCEC, Seed: 1, ProxyCacheFrac: 0.3, FCTrailing: true},
			"8e4b21a552cc7eed8e4109d21a56092519a68a41e1cdbcbffc69f0754c31d7df"},
		{"fc-ec-single-pool", small,
			Config{Scheme: FCEC, Seed: 1, ProxyCacheFrac: 0.05, SinglePoolEC: true},
			"e3ce81baafb37974486108628dcd8d6f6e10124e823cc1a6468372ebe336e817"},
		{"fc-four-proxies", small,
			Config{Scheme: FC, Seed: 1, NumProxies: 4, ClientsPerCluster: 50, ProxyCacheFrac: 0.05},
			"98e95a8320252ca08c12dd34e6af0249175a5155994c959b034bb0d262ebd391"},
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
