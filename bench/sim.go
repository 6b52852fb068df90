package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"webcache/internal/netmodel"
	"webcache/internal/prowgen"
	"webcache/internal/sim"
	"webcache/internal/trace"
)

// allSchemes is the paper's seven plus Squirrel, in replay order.
var allSchemes = append(sim.AllSchemes(), sim.Squirrel)

// simSizes freezes one simulator workload's inputs.
type simSizes struct {
	Name     string `json:"-"`
	Requests int    `json:"requests"`
	Objects  int    `json:"objects"`
	Clients  int    `json:"clients"`
	// Schemes are replayed, in order, by one measured pass.
	Schemes []sim.Scheme `json:"-"`
	// Bloom selects the counting-Bloom directory (1 % false positives)
	// instead of the exact one; FailEvery crashes a client cache every
	// N requests and re-joins a fresh one (0 = no churn).
	Bloom     bool `json:"bloom_directory"`
	FailEvery int  `json:"fail_every"`
	// PassesPerSecond is the reference box's rate of passes over
	// Schemes; with --seconds it fixes how many passes a run measures.
	PassesPerSecond float64 `json:"passes_per_second"`
}

func (sz simSizes) scaled(scale float64) simSizes {
	sz.Requests = scaleInt(sz.Requests, scale, 20000)
	sz.Objects = scaleInt(sz.Objects, scale, 1000)
	return sz
}

func (sz simSizes) prowgenConfig(seed int64) prowgen.Config {
	return prowgen.Config{NumRequests: sz.Requests, NumObjects: sz.Objects, NumClients: sz.Clients, Seed: seed}
}

// config is the paper-default simulation (2 proxies x 100 clients,
// proxy cache 50 % and client cache 0.1 % of the infinite cache size)
// with the workload's directory and churn.
func (sz simSizes) config(s sim.Scheme, seed int64) sim.Config {
	cfg := sim.Config{Scheme: s, Seed: seed, FailEvery: sz.FailEvery, ReplaceFailed: sz.FailEvery > 0}
	if sz.Bloom {
		cfg.Directory = sim.DirBloom
	}
	return cfg
}

// resultDigest is the SHA-256 of what a replay decided: request count,
// serves and bytes by tier, and the exact bits of the latency total.
func resultDigest(r *sim.Result) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(r.Requests))
	for _, n := range r.Sources {
		put(uint64(n))
	}
	for _, n := range r.Bytes {
		put(n)
	}
	put(math.Float64bits(r.TotalLatency))
	return hex.EncodeToString(h.Sum(nil))
}

func originShare(r *sim.Result) float64 { return r.HitRatio(netmodel.SrcServer) }

// golden is the committed expectation for one (workload, seed) at the
// frozen sizes.
type golden struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Sizes       simSizes          `json:"sizes"`
	Fingerprint string            `json:"trace_fingerprint"`
	Digests     map[string]string `json:"digests"`
}

//go:embed golden/*.json
var embeddedGoldens embed.FS

func goldenName(workload string, seed int64) string {
	return fmt.Sprintf("%s.seed%d.json", workload, seed)
}

// loadGolden returns the golden for (workload, seed), or nil when none
// is committed: only the default and the held-out seed have one.
func loadGolden(dir, workload string, seed int64) (*golden, error) {
	var blob []byte
	var err error
	if dir != "" {
		blob, err = os.ReadFile(filepath.Join(dir, goldenName(workload, seed)))
	} else {
		blob, err = embeddedGoldens.ReadFile("golden/" + goldenName(workload, seed))
	}
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(blob, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", goldenName(workload, seed), err)
	}
	return &g, nil
}

// checkSim holds one pass's results against the oracles: every request
// is accounted to exactly one tier, every pass decides the same thing,
// and, where a golden is committed for this seed and these sizes, the
// decisions are the committed ones.
type simChecker struct {
	out    *runOutput
	golden *golden // nil = none for this seed, or sizes differ
	first  map[string]string
}

func newSimChecker(out *runOutput, sz simSizes, o options) (*simChecker, error) {
	c := &simChecker{out: out, first: map[string]string{}}
	g, err := loadGolden(o.goldenDir, sz.Name, o.seed)
	if err != nil {
		return nil, err
	}
	// A golden speaks for the sizes it was made at (-scale runs differ).
	if g != nil && sizesEqual(g.Sizes, sz) {
		c.golden = g
		if g.Fingerprint != out.fingerprint {
			out.problemf("trace fingerprint %s, golden has %s", out.fingerprint, g.Fingerprint)
		}
	}
	out.record["golden_checked"] = c.golden != nil
	return c, nil
}

// sizesEqual compares what the golden file records of the sizes.
func sizesEqual(a, b simSizes) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return bytes.Equal(ja, jb)
}

// check returns whether the replay of one scheme is right; a wrong one
// counts as a failed operation of the pass.
func (c *simChecker) check(name string, want int, r *sim.Result) bool {
	ok := true
	served := 0
	for _, n := range r.Sources {
		served += n
	}
	if r.Requests != want || served != r.Requests {
		c.out.problemf("%s: %d requests replayed, %d served, want %d", name, r.Requests, served, want)
		ok = false
	}
	d := resultDigest(r)
	if prev, seen := c.first[name]; !seen {
		c.first[name] = d
	} else if prev != d {
		c.out.problemf("%s: result digest changed between passes (%s then %s)", name, prev, d)
		ok = false
	}
	if c.golden != nil {
		if wantD, has := c.golden.Digests[name]; has && wantD != d {
			c.out.problemf("%s: result digest %s, golden has %s", name, d, wantD)
			ok = false
		}
	}
	return ok
}

// simInputs is one trace set-up's product: the trace as a replay
// receives it, and how long each step of producing it took.
type simInputs struct {
	tr           *trace.Trace
	fingerprint  string
	encodedBytes int
	generateS    float64
	encodeS      float64
	decodeS      float64
	fingerprintS float64
}

// setupSim generates the trace, takes it through the binary codec (the
// way a replay normally receives one) and fingerprints it.  rec, when
// non-nil, records each call as a span.
func setupSim(pcfg prowgen.Config, rec *spanRecorder) (*simInputs, error) {
	in := &simInputs{}
	var err error
	var gen *trace.Trace
	in.generateS = rec.timed("prowgen.generate", "setup", "", func() { gen, err = prowgen.Generate(pcfg) }).Seconds()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	in.encodeS = rec.timed("trace.encode", "setup", "", func() { err = trace.WriteBinary(&buf, gen) }).Seconds()
	if err != nil {
		return nil, err
	}
	in.encodedBytes = buf.Len()
	in.decodeS = rec.timed("trace.decode", "setup", "", func() { in.tr, err = trace.ReadBinary(&buf) }).Seconds()
	if err != nil {
		return nil, err
	}
	in.fingerprintS = rec.timed("trace.fingerprint", "setup", "", func() { in.fingerprint = trace.Fingerprint(in.tr) }).Seconds()
	if fp := trace.Fingerprint(gen); fp != in.fingerprint {
		return nil, fmt.Errorf("trace changed in the codec round trip: %s became %s", fp, in.fingerprint)
	}
	return in, nil
}

// pipelineMetrics reports the set-up's steps as layer metrics.
func (in *simInputs) pipelineMetrics(m map[string]float64) {
	n := float64(in.tr.Len())
	m["prowgen.generate_s"] = in.generateS
	m["prowgen.req_per_s"] = n / in.generateS
	m["trace.encode_mb_per_s"] = float64(in.encodedBytes) / 1e6 / in.encodeS
	m["trace.decode_rec_per_s"] = n / in.decodeS
	m["trace.fingerprint_s"] = in.fingerprintS
}

// simPass replays every scheme once, serially; each replay is one block
// of the scheme's group.  It returns the blocks and the results.
func simPass(schemes []sim.Scheme, cfgFor func(sim.Scheme) sim.Config, tr *trace.Trace, pass int,
	rec *spanRecorder, chk *simChecker) ([]block, []*sim.Result, error) {
	blocks := make([]block, len(schemes))
	results := make([]*sim.Result, len(schemes))
	for i, s := range schemes {
		name := schemeMetricName(s.String())
		b := &blocks[i]
		b.group, b.reqs = i, tr.Len()
		var err error
		m := startMeter()
		rec.timed("sim."+name, "pass", fmt.Sprintf("pass%d", pass), func() {
			results[i], err = sim.Run(tr, cfgFor(s))
		})
		m.stop(b)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", s, err)
		}
		if chk != nil && !chk.check(name, tr.Len(), results[i]) {
			b.failed = tr.Len()
		}
		if s == sim.HierGD {
			b.hitRatio, b.hasHit = 1-originShare(results[i]), true
		}
	}
	return blocks, results, nil
}

// runSim measures a simulator workload.
func runSim(sz simSizes, o options) (*runOutput, error) {
	if o.traced {
		return simTraced(sz, o)
	}
	out := newRunOutput()
	var in *simInputs
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		in = nil
		runtime.GC() // each set-up starts from a collected heap, as each block does
		start := time.Now()
		var err error
		if in, err = setupSim(sz.prowgenConfig(o.seed), nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	out.fingerprint = in.fingerprint
	chk, err := newSimChecker(out, sz, o)
	if err != nil {
		return nil, err
	}
	// Warm-up: one unmeasured pass, so page faults and heap growth are
	// behind us.  It is set-up time a user pays, so it is counted there.
	cfgFor := func(s sim.Scheme) sim.Config { return sz.config(s, o.seed) }
	warmStart := time.Now()
	if _, _, err := simPass(sz.Schemes, cfgFor, in.tr, -1, nil, chk); err != nil {
		return nil, err
	}
	out.e2e["setup_s"] = median(setups) + time.Since(warmStart).Seconds()

	clock := startClock(blocksFor(o.seconds, sz.PassesPerSecond, minBlocks), o.seconds)
	for i := 0; clock.more(i); i++ {
		blocks, _, err := simPass(sz.Schemes, cfgFor, in.tr, i, nil, chk)
		if err != nil {
			return nil, err
		}
		out.addBlocks(blocks)
	}
	for k, v := range reduceBlocks(out.blocks) {
		out.e2e[k] = v
	}
	out.record["digests"] = chk.first
	out.record["blocks_planned"] = clock.n * len(sz.Schemes)
	return out, nil
}

// writeGoldens replays both simulator workloads at full size for -seed
// and writes their digests into golden/ (run from this directory).
func writeGoldens(o options) error {
	for _, sz := range []simSizes{simCompare, simChurn} {
		in, err := setupSim(sz.prowgenConfig(o.seed), nil)
		if err != nil {
			return err
		}
		cfgFor := func(s sim.Scheme) sim.Config { return sz.config(s, o.seed) }
		_, results, err := simPass(sz.Schemes, cfgFor, in.tr, 0, nil, nil)
		if err != nil {
			return err
		}
		g := golden{Workload: sz.Name, Seed: o.seed, Sizes: sz, Fingerprint: in.fingerprint, Digests: map[string]string{}}
		for i, s := range sz.Schemes {
			g.Digests[schemeMetricName(s.String())] = resultDigest(results[i])
		}
		blob, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join("golden", goldenName(sz.Name, o.seed))
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
}
