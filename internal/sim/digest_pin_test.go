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
	// Re-pinned when Result lost its eight zero-valued fleet-telemetry
	// keys.  Every pin equals what the simulator printed before that
	// change with those fields tagged json:"-", so no outcome moved.
	const pinned = "43ee89b8abf96d644961ac79e0af00e748ca382d153cb81f9b6a1dc8cc331486"

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
// sampled verification.
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
			"073758e00cd29e59b9c6d6bdcb85e8106af7582dec6f895d3f966bb811afb39b"},
		{"squirrel-churn", churn,
			Config{Scheme: Squirrel, Seed: 1, FailEvery: 500, ReplaceFailed: true, Directory: DirBloom},
			"6aaa55d81f9390e1519b270147f89c4d0f99ef9e58d0deec80758bee13e0bf2d"},
		{"hier-gd-flash-churn", small,
			Config{Scheme: HierGD, Seed: 1, ProxyCacheFrac: 0.3, FailEvery: 500, ReplaceFailed: true, Directory: DirBloom, FlashChurnAt: 20_000},
			"4c10c3a52c6e97dd8cd4f0e13efa70bcd2611071b195b17c3a3638c56911b337"},
		{"hier-gd-hot-replication", small,
			Config{Scheme: HierGD, Seed: 1, ProxyCacheFrac: 0.3, FailEvery: 500, ReplaceFailed: true, ReplicateHotAfter: 4},
			"9a0b1705ca49a9dc3217cd8d0d11cad03659da63a1a384d2adbe4c59de9c23bd"},
		{"sc-digests", small,
			Config{Scheme: SC, Seed: 1, ProxyCacheFrac: 0.3, DigestInterval: 1_000},
			"bb44f0838595e8bc0e98a36da69190dfe244bae60b4183c452c9c450ee9fde0b"},
		{"sc-ec-digests", small,
			Config{Scheme: SCEC, Seed: 1, ProxyCacheFrac: 0.3, DigestInterval: 1_000},
			"605271d5ce2382cb621955bb8e46e9140ee3d0b7cb61e61de1ccfb07587819d0"},
		{"hier-gd-digests", small,
			Config{Scheme: HierGD, Seed: 1, ProxyCacheFrac: 0.3, DigestInterval: 1_000, Directory: DirBloom},
			"eb1712b1b9ac330cc862d56d1b8cd381fdc000bdd91d32e9559359db9f571b22"},
		{"hier-gd-poison-sweep", small,
			Config{Scheme: HierGD, Seed: 1, ProxyCacheFrac: 0.3, PoisonEvery: 700, DirSweepEvery: 5_000},
			"499bc76e0436bc92c3e3bedb53dabb8a0a29cd061c128a765650b1d3153b37a9"},
		{"hier-gd-byzantine", small,
			Config{Scheme: HierGD, Seed: 1, ProxyCacheFrac: 0.3, ByzantineFraction: 0.1, VerifyFraction: 0.5},
			"eaefe3e7a4b8240933c9d09b25c73e39224bb225e5e79c305c246116d9640420"},
		{"squirrel", small,
			Config{Scheme: Squirrel, Seed: 1, ProxyCacheFrac: 0.3, ClientsPerCluster: 16},
			"420f5c5179e3dbc7915c8b85cf43bec0c47632e10ad1650e5404e27a3e358653"},
		{"fc-variable-sizes", sized,
			Config{Scheme: FC, Seed: 1, ProxyCacheFrac: 0.2},
			"abc9eab448c6f3cc4f8dc3479aa46e2396f41a82a40e0e75b5cf1b25cd84e068"},
		{"fc-ec-variable-sizes", sized,
			Config{Scheme: FCEC, Seed: 1, ProxyCacheFrac: 0.2},
			"377d44f8832c4c40fcb7a6e544850293bbe352fa2c1fce033debf2403ba0a170"},
		{"fc-trailing", small,
			Config{Scheme: FC, Seed: 1, ProxyCacheFrac: 0.3, FCTrailing: true},
			"a8edb7ffa9c45f37ce9af25f524b810236af29ad4d11780dfcff55b3eb29d495"},
		{"nc-lru", small,
			Config{Scheme: NC, Seed: 1, ProxyCacheFrac: 0.3, BasePolicy: BaseLRU},
			"618b3c2aacf12b87be15898ed4d0215f551a0e8d53d56f69d52e79f99139b499"},
		{"nc-ec-lfu-in-cache", small,
			Config{Scheme: NCEC, Seed: 1, ProxyCacheFrac: 0.3, BasePolicy: BaseLFUInCache},
			"7b2c3a1984637a5f370ebb074b3472a8a37366ea59395ead90ae36ff93b465ad"},
		{"sc-ec-greedy-dual", small,
			Config{Scheme: SCEC, Seed: 1, ProxyCacheFrac: 0.3, BasePolicy: BaseGreedyDual},
			"b64f1625d2f0674bd5c964283be00249904e64e547a987edad6674a6d4ca3f21"},
		{"nc-ec-variable-sizes", sized,
			Config{Scheme: NCEC, Seed: 1, ProxyCacheFrac: 0.2},
			"8cb62613de0b672befce1a374990d9eb86d836290ee8330c44c12797556199ed"},
		{"hier-gd-variable-sizes", sized,
			Config{Scheme: HierGD, Seed: 1, ProxyCacheFrac: 0.2},
			"72e29c4bd8c2a1b4ee125f18b805b2b72de6a5f137a823e5fb561c6b4596eecb"},
		{"squirrel-variable-sizes", sized,
			Config{Scheme: Squirrel, Seed: 1, ProxyCacheFrac: 0.2},
			"d4c6c79aef996213d6ff71dbc4cf19520dff80e988aa2ec44955c4cc147a1848"},
		{"hier-gd-churn-variable-sizes", sized,
			Config{Scheme: HierGD, Seed: 1, ProxyCacheFrac: 0.2, FailEvery: 500, ReplaceFailed: true},
			"5f655935840ad00cfa4da4f65b5c7d8dbb7c1c8db52dc54ddd2f41a8ce56a5a8"},
		{"hier-gd-no-diversion", small,
			Config{Scheme: HierGD, Seed: 1, ProxyCacheFrac: 0.3, DisableDiversion: true},
			"c01929fad02da7f03b45ecb053e0de6dab5ba5e6176820c3de64f569297bc4a3"},
		{"fc-ec-trailing", small,
			Config{Scheme: FCEC, Seed: 1, ProxyCacheFrac: 0.3, FCTrailing: true},
			"629264a2ab6decb260c3039f155d478f8b8fd504d40c67bc1ab16383fb9b2d68"},
		{"fc-ec-single-pool", small,
			Config{Scheme: FCEC, Seed: 1, ProxyCacheFrac: 0.05, SinglePoolEC: true},
			"669122d18c30bd3067be754856791b9ce81b75ca6a53ca6668979a80f82bc6c0"},
		{"fc-four-proxies", small,
			Config{Scheme: FC, Seed: 1, NumProxies: 4, ClientsPerCluster: 50, ProxyCacheFrac: 0.05},
			"831bc940502c8002fe2cef95975776d08e6d3c0b003731b50032f59aa496d85e"},
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
