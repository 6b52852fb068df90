# Build/test entry points.  `make check` is the observability-layer
# gate: vet everything and race-test the packages with concurrent
# metric traffic.

GO ?= go

.PHONY: all build test check guards race paper vet fuzz-smoke bench-check bench-golden bench-smoke chaos-smoke chaos-bench trace-alloc sim-alloc examples

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The instrumentation gate: full vet plus race-enabled tests of the
# metric registry, the invariant oracles, the simulator that feeds
# them (the ./internal/sim run includes the checked end-to-end
# replays), the concurrent data plane (the store + the HTTP
# daemons built on it, and the SLO tracker their concurrent handlers
# write while /metrics reads it), and what runs live traffic over it
# (load generator, chaos suite, cluster view), as CI's race job does,
# after the tree guards.
check: vet guards
	$(GO) test -race ./internal/obs ./internal/invariant ./internal/sim \
		./internal/core ./internal/store ./internal/store/disk ./internal/httpcache \
		./internal/loadgen ./internal/chaos ./internal/obs/cluster ./internal/obs/slo

# The tree guards, which CI runs as this target too: they fail on any
# file gofmt would rewrite, if the simulator library (the root webcache
# package) links any package of the live data plane, if the
# library, a command or an example links the disk log only the
# benchmark's probes use, if DESIGN.md passes 800 lines or
# EXPERIMENTS.md 900, so the prose describes the code at HEAD, and if
# CHANGES.md passes 64 KiB, past which older entries are collapsed to
# one line each with their commit ids (FOUND: lines kept verbatim).
guards:
	@test -z "$$(gofmt -l . | tee /dev/stderr)" || { echo "gofmt -l . names the files above" >&2; exit 1; }
	@test -z "$$($(GO) list -deps . | grep -E '^webcache/internal/(httpcache|loadgen|store|obs/slo)(/|$$)' | tee /dev/stderr)" || { echo "go list -deps . names the live data-plane packages above" >&2; exit 1; }
	@test -z "$$($(GO) list -deps . ./cmd/... ./examples/... | grep -x 'webcache/internal/store/disk' | tee /dev/stderr)" || { echo "the product links the bench-only internal/store/disk" >&2; exit 1; }
	@test $$(wc -l < DESIGN.md) -le 800 || { echo "DESIGN.md has $$(wc -l < DESIGN.md) lines, more than 800" >&2; exit 1; }
	@test $$(wc -l < EXPERIMENTS.md) -le 900 || { echo "EXPERIMENTS.md has $$(wc -l < EXPERIMENTS.md) lines, more than 900" >&2; exit 1; }
	@test $$(wc -c < CHANGES.md) -le 65536 || { echo "CHANGES.md has $$(wc -c < CHANGES.md) bytes, more than 65536: collapse its oldest entries" >&2; exit 1; }

# Ten seconds of each fuzz target (beyond replaying the checked-in
# seed corpora, which plain `make test` already does).  FUZZTIME=1m
# for a longer soak.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzCounting -fuzztime=$(FUZZTIME) ./internal/bloom
	$(GO) test -run='^$$' -fuzz=FuzzFilterUnmarshal -fuzztime=$(FUZZTIME) ./internal/bloom
	$(GO) test -run='^$$' -fuzz=FuzzDigestSummary -fuzztime=$(FUZZTIME) ./internal/bloom
	$(GO) test -run='^$$' -fuzz=FuzzCheckedPolicy -fuzztime=$(FUZZTIME) ./internal/invariant
	$(GO) test -run='^$$' -fuzz=FuzzRingChurn -fuzztime=$(FUZZTIME) ./internal/invariant
	$(GO) test -run='^$$' -fuzz=FuzzTextCodec -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzBinaryCodec -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzRecord -fuzztime=$(FUZZTIME) ./internal/store/disk
	$(GO) test -run='^$$' -fuzz=FuzzJournalReplay -fuzztime=$(FUZZTIME) ./internal/store/disk
	$(GO) test -run='^$$' -fuzz=FuzzRegister -fuzztime=$(FUZZTIME) ./internal/httpcache
	$(GO) test -run='^$$' -fuzz=FuzzHopReply -fuzztime=$(FUZZTIME) ./internal/httpcache
	$(GO) test -run='^$$' -fuzz=FuzzFrameRequest -fuzztime=$(FUZZTIME) ./internal/httpcache
	$(GO) test -run='^$$' -fuzz=FuzzStoreReceipt -fuzztime=$(FUZZTIME) ./internal/httpcache
	$(GO) test -run='^$$' -fuzz=FuzzOriginReply -fuzztime=$(FUZZTIME) ./internal/httpcache
	$(GO) test -run='^$$' -fuzz=FuzzReplyHead -fuzztime=$(FUZZTIME) ./internal/httpcache
	$(GO) test -run='^$$' -fuzz=FuzzAppendUnescaped -fuzztime=$(FUZZTIME) ./internal/httpcache
	$(GO) test -run='^$$' -fuzz=FuzzIDTable -fuzztime=$(FUZZTIME) ./internal/pastry
	$(GO) test -run='^$$' -fuzz=FuzzIDArith -fuzztime=$(FUZZTIME) ./internal/pastry
	$(GO) test -run='^$$' -fuzz=FuzzSlotTable -fuzztime=$(FUZZTIME) ./internal/cache
	$(GO) test -run='^$$' -fuzz=FuzzPlacement -fuzztime=$(FUZZTIME) ./internal/cache
	$(GO) test -run='^$$' -fuzz=FuzzGreedyDual -fuzztime=$(FUZZTIME) ./internal/cache
	$(GO) test -run='^$$' -fuzz=FuzzClusterFreeTally -fuzztime=$(FUZZTIME) ./internal/p2p

race:
	$(GO) test -race ./...

# Build and run every example (~3s in all): `go build ./...` only
# compiles them, so one that dies on a Validate error or log.Fatal
# would go unseen.  Their stdout is dropped; a failure's stderr shows.
EXAMPLES = quickstart bounds corporate workloads overlay squidlog
examples:
	@for e in $(EXAMPLES); do echo "examples/$$e"; $(GO) run ./examples/$$e >/dev/null || exit 1; done

# The repo benchmark (bench/, BENCHMARK.json) is its own module, so
# `make test` cannot see an internal/* API change that breaks it; this
# vets and short-tests it against the current tree (~8s).  Per-layer
# speed (trace decode, sim ns/req per scheme, store and disk ops) is
# measured there: bash bench/run.sh --workload <w> --seed 1 --seconds 20 --trace 1
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# The committed sim goldens (bench/golden/*.json) hold at full size
# only, so bench-check's short tests cannot compare them: this runs one
# pass of each sim workload at seeds 1 and 2 (~15s) and fails when a
# run exits non-zero (a scheme's result digest differs from its golden)
# or consulted no golden.
bench-golden:
	@for w in sim_compare sim_churn; do for s in 1 2; do \
		echo "bench $$w seed $$s"; \
		out=$$(bash bench/run.sh --workload $$w --seed $$s --seconds 1 --trace 0) || { echo "$$out"; exit 1; }; \
		echo "$$out" | grep -q '"golden_checked":true' || { echo "$$w seed $$s: no golden consulted"; exit 1; }; \
	done; done

# ~10s live loopback bench: 2 proxies x 3 client caches over real
# sockets driven open-loop (Poisson) from a small ProWGen trace, then the same
# prefix replayed through the simulator with identical capacities.
# Exits non-zero if live and simulated aggregate hit ratios drift more
# than 20pp apart (a loose bound — smoke traces are small) or if the
# BENCH_live.json manifest fails to round-trip the validating reader.
bench-smoke:
	$(GO) run ./cmd/hiergdd bench live -requests 4000 -objects 400 -clients 40 \
		-proxies 2 -caches 3 -mode open -rate 600 \
		-duration 10s -object-bytes 512 -warmup 400 -tolerance 0.2 \
		-manifest BENCH_live.json

# ~20s chaos smoke: the two headline adversarial scenarios (slow-peer
# tail amplification, mass flash-churn) plus churn during a flash
# crowd, run live with the httpcache defenses off and on and replayed
# through the simulator, the conservation accountant attached to every
# run and every request counted (no warmup).  Requests are tagged
# interactive (100ms @ 99%) or batch (1s @ 90%); each proxy tracks the
# classes server-side and the cluster aggregator scrapes every member
# after each live run.  Fails if any run breaks conservation, if any
# live run has a member down or an aggregator hit ratio more than
# 0.1pp from the load generator's, or if on slow-peer the per-hop deadlines
# and strike sweeps fail to cut the interactive fast-window burn or
# cut the live p999 by less than chaos.MinP999Cut (1.3x); writes
# BENCH_chaos.json.
chaos-smoke:
	$(GO) run ./cmd/hiergdd bench chaos -chaos-scenarios slow-peer,flash-churn,churn-during-flash-crowd \
		-requests 1500 -objects 200 -clients 40 -proxies 2 -caches 3 \
		-object-bytes 512 -rate 750 \
		-manifest BENCH_chaos.json

# ~2min full chaos suite: every scenario (baseline, slow-peer,
# flash-churn, churn-during-flash-crowd, byzantine, launder, poison), each live
# pair run three times, same gates as chaos-smoke on every slow-peer
# replicate; prints each row's median and range and, against the
# baseline's range (the noise floor), whether its cuts and price
# resolve.
chaos-bench:
	$(GO) run ./cmd/hiergdd bench chaos -replicates 3 \
		-requests 1500 -objects 200 -clients 40 -proxies 2 -caches 3 \
		-object-bytes 512 -rate 750 \
		-manifest BENCH_chaos.json

# The disabled-tracer cost gate: the nil tracer must stay zero-alloc
# on the request path (also asserted by TestDisabledTracerZeroAlloc;
# CI runs this with -benchmem so regressions show up as numbers).
trace-alloc:
	$(GO) test -run='^$$' -bench=BenchmarkDisabledTracer -benchmem ./internal/obs

# The hot-path zero-alloc gates: a replacement policy's hit and
# evicting Add, an FC re-placement, steady-state simulator serves (every
# sim engine: the LFU family, FC and FC-EC, Hier-GD and Squirrel over
# Pastry), a Pastry route, a P2P lookup hit and pass-down replacement, the
# load generator's per-request recorder, and the live proxy/client-cache
# memory-hit paths (the proxy's for a raw and a query-escaped URL) must not
# touch the heap, loadgen.BuildSchedule makes at most one allocation per
# request (TestBuildScheduleAllocsPerRun), and a member-to-member hop,
# both ends counted, allocates at most 3 objects for an 8 KiB LAN fetch,
# 2 for the same fetch under a cancellable requester's context, and 12
# for an evicting store or pass-down (TestHopAllocsPerRun), whose
# header values come from a memo that allocates nothing once warm
# (TestDecimalValueZeroAlloc), an 8 KiB origin GET, both ends
# counted, allocates at most 20 (TestOriginFetchAllocs), the same GET
# through the load generator's transport at most 23 (TestTransportAllocs),
# and trace.ReadBinary on a bytes.Reader allocates the input, the Trace and
# its Requests, 3 in all (TestReadBinaryAllocsPerRun).  Run
# without -race on purpose — race instrumentation allocates on paths the
# production build does not, so these files are !race-tagged and
# invisible to `make check`.
sim-alloc:
	$(GO) test -run='ZeroAlloc|AllocsPerRun|HitPathAllocs|OriginFetchAllocs|TransportAllocs|DigestPublishAllocs' ./internal/cache ./internal/sim ./internal/httpcache ./internal/pastry ./internal/p2p ./internal/loadgen ./internal/trace

# The paper's figures and claims (~13 min on 2 CPUs): one build runs
# every figure at the paper's scale and at 0.2, five seeds each, as
# JSON with each run's manifest; only when both runs succeed do they
# replace the ones in results/, and then results/figures.md is rendered
# from them through core.Claims by the golden test that holds it.
paper:
	@mkdir -p results
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/webcachesim" ./cmd/webcachesim && \
	for s in 1.0 0.2; do \
		echo "webcachesim -fig all -scale $$s -replicates 5"; \
		"$$tmp/webcachesim" -fig all -scale $$s -replicates 5 -json \
			-manifest "$$tmp/scale-$$s.manifest.json" > "$$tmp/scale-$$s.json" || exit 1; \
	done && \
	mv "$$tmp"/scale-*.json results/
	$(GO) test ./internal/core -run '^TestPaperGolden$$' -update
