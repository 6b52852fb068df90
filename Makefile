# Build/test entry points.  `make check` is the observability-layer
# gate: vet everything and race-test the packages with concurrent
# metric traffic.

GO ?= go

.PHONY: all build test check race bench vet fuzz-smoke bench-check bench-smoke chaos-smoke chaos-bench trace-alloc sim-alloc

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
# replays), and the concurrent data plane (sharded store + the HTTP
# daemons built on it).  It fails on any file gofmt would rewrite, and
# if the simulator library (the root webcache package) links any
# package of the live data plane.
check: vet
	@test -z "$$(gofmt -l . | tee /dev/stderr)" || { echo "gofmt -l . names the files above" >&2; exit 1; }
	@test -z "$$($(GO) list -deps . | grep -E '^webcache/internal/(httpcache|loadgen|store|obs/slo)(/|$$)' | tee /dev/stderr)" || { echo "go list -deps . names the live data-plane packages above" >&2; exit 1; }
	$(GO) test -race ./internal/obs ./internal/invariant ./internal/sim \
		./internal/core ./internal/store ./internal/store/disk ./internal/httpcache

# Ten seconds of each fuzz target (beyond replaying the checked-in
# seed corpora, which plain `make test` already does).  FUZZTIME=1m
# for a longer soak.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzCounting -fuzztime=$(FUZZTIME) ./internal/bloom
	$(GO) test -run='^$$' -fuzz=FuzzFilterUnmarshal -fuzztime=$(FUZZTIME) ./internal/bloom
	$(GO) test -run='^$$' -fuzz=FuzzCheckedPolicy -fuzztime=$(FUZZTIME) ./internal/invariant
	$(GO) test -run='^$$' -fuzz=FuzzRingChurn -fuzztime=$(FUZZTIME) ./internal/invariant
	$(GO) test -run='^$$' -fuzz=FuzzTextCodec -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzBinaryCodec -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzRecord -fuzztime=$(FUZZTIME) ./internal/store/disk
	$(GO) test -run='^$$' -fuzz=FuzzJournalReplay -fuzztime=$(FUZZTIME) ./internal/store/disk
	$(GO) test -run='^$$' -fuzz=FuzzFleetRingChurn -fuzztime=$(FUZZTIME) ./internal/fleet
	$(GO) test -run='^$$' -fuzz=FuzzHopReply -fuzztime=$(FUZZTIME) ./internal/httpcache
	$(GO) test -run='^$$' -fuzz=FuzzIDTable -fuzztime=$(FUZZTIME) ./internal/pastry
	$(GO) test -run='^$$' -fuzz=FuzzSlotTable -fuzztime=$(FUZZTIME) ./internal/cache
	$(GO) test -run='^$$' -fuzz=FuzzPlacement -fuzztime=$(FUZZTIME) ./internal/cache
	$(GO) test -run='^$$' -fuzz=FuzzClusterFreeTally -fuzztime=$(FUZZTIME) ./internal/p2p

race:
	$(GO) test -race ./...

# The repo benchmark (bench/, BENCHMARK.json) is its own module, so
# `make test` cannot see an internal/* API change that breaks it; this
# vets and short-tests it against the current tree (~8s).  Per-layer
# speed (trace decode, sim ns/req per scheme, store and disk ops) is
# measured there: bash bench/run.sh --workload <w> --seed 1 --seconds 20 --trace 1
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# ~10s live loopback bench: 2 proxies x 3 client caches over real
# sockets driven open-loop from a small ProWGen trace, then the same
# prefix replayed through the simulator with identical capacities.
# Exits non-zero if live and simulated aggregate hit ratios drift more
# than 20pp apart (a loose bound — smoke traces are small) or if the
# BENCH_live.json manifest fails to round-trip the validating reader.
bench-smoke:
	$(GO) run ./cmd/hiergdd bench live -requests 4000 -objects 400 -clients 40 \
		-proxies 2 -caches 3 -mode open -arrival poisson -rate 600 \
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
# live run has a member down or an aggregator hit ratio more than 1pp
# from the load generator's, or if on slow-peer the per-hop deadlines
# and strike sweeps fail to cut the interactive fast-window burn or
# cut the live p999 by less than 1.3x; writes BENCH_chaos.json.
chaos-smoke:
	$(GO) run ./cmd/hiergdd bench chaos -chaos-scenarios slow-peer,flash-churn,churn-during-flash-crowd \
		-requests 1500 -objects 200 -clients 40 -proxies 2 -caches 3 \
		-object-bytes 512 -rate 750 -chaos-min-p999-cut 1.3 \
		-manifest BENCH_chaos.json

# ~40s full chaos suite: every scenario (baseline, slow-peer,
# flash-churn, churn-during-flash-crowd, byzantine, poison,
# fleet-partition), same gates as chaos-smoke.
chaos-bench:
	$(GO) run ./cmd/hiergdd bench chaos \
		-requests 1500 -objects 200 -clients 40 -proxies 2 -caches 3 \
		-object-bytes 512 -rate 750 -chaos-min-p999-cut 1.3 \
		-manifest BENCH_chaos.json

# The disabled-tracer cost gate: the nil tracer must stay zero-alloc
# on the request path (also asserted by TestDisabledTracerZeroAlloc;
# CI runs this with -benchmem so regressions show up as numbers).
trace-alloc:
	$(GO) test -run='^$$' -bench=BenchmarkDisabledTracer -benchmem ./internal/obs

# The hot-path zero-alloc gates: a replacement policy's hit and
# evicting Add, an FC re-placement, steady-state simulator serves (LFU family, fleet
# engine, Hier-GD and Squirrel over Pastry), a Pastry route, a P2P
# lookup hit and pass-down replacement, the load generator's per-request
# recorder, and the live proxy/client-cache memory-hit paths must not touch the
# heap.  Run without -race on purpose —
# race instrumentation allocates on paths the production build does
# not, so these files are !race-tagged and invisible to `make check`.
sim-alloc:
	$(GO) test -run='ZeroAlloc|AllocsPerRun|HitPathAllocs' ./internal/cache ./internal/sim ./internal/httpcache ./internal/pastry ./internal/p2p ./internal/loadgen

# One iteration of every figure bench; set WEBCACHE_BENCH_SCALE and/or
# WEBCACHE_BENCH_MANIFEST=bench.json to scale up or record a manifest.
bench:
	$(GO) test -bench=Fig -benchtime=1x .
