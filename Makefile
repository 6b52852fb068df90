# Build/test entry points.  `make check` is the observability-layer
# gate: vet everything and race-test the packages with concurrent
# metric traffic.

GO ?= go

.PHONY: all build test check race bench vet fuzz-smoke bench-check bench-smoke bench-diff chaos-smoke chaos-bench fleet-bench slo-smoke trace-alloc sim-alloc

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
# daemons built on it).  It fails on any file gofmt would rewrite.
check: vet
	@test -z "$$(gofmt -l . | tee /dev/stderr)" || { echo "gofmt -l . names the files above" >&2; exit 1; }
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

# The manifest-diff loop: run the same small bench twice (same seed,
# so the workload fingerprints match), then diff the two manifests
# with cmd/benchdiff — run-to-run metric drift, mechanically.
bench-diff:
	$(GO) run ./cmd/hiergdd bench live -requests 1500 -objects 150 -clients 20 \
		-proxies 2 -caches 2 -mode closed -workers 8 -object-bytes 128 \
		-warmup 150 -manifest BENCH_a.json
	$(GO) run ./cmd/hiergdd bench live -requests 1500 -objects 150 -clients 20 \
		-proxies 2 -caches 2 -mode closed -workers 8 -object-bytes 128 \
		-warmup 150 -manifest BENCH_b.json
	$(GO) run ./cmd/benchdiff BENCH_a.json BENCH_b.json

# ~10s chaos smoke: the two headline adversarial scenarios (slow-peer
# tail amplification, mass flash-churn) run live and simulated, with
# the httpcache defenses off and on, the conservation accountant
# attached to every run.  Fails if any run breaks conservation or if
# the per-hop deadlines + strike sweeps cut the live slow-peer p999
# by less than 1.3x; writes the BENCH_chaos.json manifest (diffable
# run-to-run via cmd/benchdiff).
chaos-smoke:
	$(GO) run ./cmd/hiergdd bench chaos -chaos-scenarios slow-peer,flash-churn,churn-during-flash-crowd \
		-requests 1500 -objects 200 -clients 40 -proxies 2 -caches 3 \
		-object-bytes 512 -rate 750 -chaos-min-p999-cut 1.3 \
		-manifest BENCH_chaos.json

# ~30s full chaos suite: every scenario (baseline, slow-peer,
# flash-churn, byzantine, poison, fleet-partition), same gates as
# chaos-smoke.
chaos-bench:
	$(GO) run ./cmd/hiergdd bench chaos \
		-requests 1500 -objects 200 -clients 40 -proxies 2 -caches 3 \
		-object-bytes 512 -rate 750 -chaos-min-p999-cut 1.3 \
		-manifest BENCH_chaos.json

# ~15s SLO-plane smoke: class-tagged load (interactive 100ms @ 99%,
# batch 1s @ 90%) against a 2-proxy loopback topology with per-member
# registries and SLO trackers, under the slow-peer chaos scenario,
# defenses off and on.  After each cell the cluster aggregator scrapes
# every member's /metrics over HTTP and merges them.  Fails unless the
# defenses cut the interactive class's fast-window burn rate and the
# aggregator's cluster hit ratio agrees with the load generator's to
# within 1pp; writes the BENCH_slo.json manifest (diffable run-to-run
# via cmd/benchdiff).
slo-smoke:
	$(GO) run ./cmd/hiergdd bench slo -requests 3000 -objects 300 -clients 40 \
		-proxies 2 -caches 3 -object-bytes 512 -rate 400 \
		-slo-classes "interactive:100ms:0.99:30s,batch:1s:0.9:30s" \
		-slo-scenario slow-peer -slo-max-hit-delta 0.01 \
		-manifest BENCH_slo.json

# ~10s fleet scale sweep: the same ProWGen workload and the same TOTAL
# proxy budget (split evenly) driven closed-loop against 1, 2, 4, and 8
# consistent-hash fleet members, each behind a 2-slot x 1ms service
# gate standing in for member CPU.  Fails unless throughput strictly
# increases with fleet size, 8 members sustain >= 3x the single
# member's rate, and every size's hit ratio stays within 2pp of the
# single member's (partitioning must not cost hits); writes the
# BENCH_fleet.json manifest (diffable run-to-run via cmd/benchdiff).
fleet-bench:
	$(GO) run ./cmd/hiergdd bench fleet -requests 8000 -objects 800 \
		-clients 80 -object-bytes 512 -workers 64 -warmup 800 \
		-fleet-sizes 1,2,4,8 -fleet-min-speedup 3 -fleet-max-hit-delta 0.02 \
		-manifest BENCH_fleet.json

# The disabled-tracer cost gate: the nil tracer must stay zero-alloc
# on the request path (also asserted by TestDisabledTracerZeroAlloc;
# CI runs this with -benchmem so regressions show up as numbers).
trace-alloc:
	$(GO) test -run='^$$' -bench=BenchmarkDisabledTracer -benchmem ./internal/obs

# The hot-path zero-alloc gates: a replacement policy's hit and
# evicting Add, steady-state simulator serves (LFU family + fleet
# engine), a Pastry route, a P2P lookup hit and pass-down replacement,
# and the live proxy/client-cache memory-hit paths must not touch the
# heap.  Run without -race on purpose —
# race instrumentation allocates on paths the production build does
# not, so these files are !race-tagged and invisible to `make check`.
sim-alloc:
	$(GO) test -run='ZeroAlloc|AllocsPerRun|HitPathAllocs' ./internal/cache ./internal/sim ./internal/httpcache ./internal/pastry ./internal/p2p

# One iteration of every figure bench; set WEBCACHE_BENCH_SCALE and/or
# WEBCACHE_BENCH_MANIFEST=bench.json to scale up or record a manifest.
bench:
	$(GO) test -bench=Fig -benchtime=1x .
