# Tier-1 check: everything builds, every test passes.
.PHONY: test
test:
	go build ./... && go test ./...

# Tier-2 check: race-detector pass over the whole module.
.PHONY: race
race:
	go test -race ./...

# Portable-fallback pass: rerun the kernel-consuming suites with the SIMD
# dispatch vetoed, proving the generic reference path stays green (the
# exact code non-amd64 builds and RATEL_NOSIMD=1 deployments run).
.PHONY: test-nosimd
test-nosimd:
	RATEL_NOSIMD=1 go test -count=1 ./internal/tensor/... ./internal/nn ./internal/opt ./internal/engine

# Core-count pass: the bit-identity and equivalence tests, the worker
# pool's stats accounting, and the steady-state allocation pins at
# GOMAXPROCS 1, 2 and 4 — exactness and the allocation budgets must not
# depend on how many cores the kernels and the optimizer worker get. Each
# count runs in its own process: pool.Default() sizes itself from
# GOMAXPROCS once, on first use, so `go test -cpu 1,2,4` in one process
# would run every pass on the one-participant pool of the first.
PROCS_TESTS = TestNoStalenessAcrossGradModes|TestReadinessBitIdenticalMatrix|TestSchedBitIdentityMatrix|TestDataParallelMatchesAccumulation|TestEntryPointEquivalence|TestPrefetcherBitIdentity|TestAsyncApplierMatchesSync|TestStatsCountChunks|TestCacheRoundTripAllocs|TestTrainStepSteadyStateAllocs|TestOptSchedSteadyStateAllocs|TestCodecIntoPathsAllocFree|TestDispatchAllocFree|TestRecycledJobsStress|TestKernelsBitIdenticalAcrossThreads
.PHONY: test-procs
test-procs:
	@for n in 1 2 4; do \
		echo "test-procs: -cpu $$n"; \
		go test -count=1 -cpu $$n -run '^($(PROCS_TESTS))$$' ./internal/engine ./internal/opt ./internal/tensor ./internal/tensor/pool || exit 1; \
	done

# Static analysis over the whole module.
.PHONY: vet
vet:
	go vet ./...

# Repo-specific analyzers (slotlife, xferown, atomicmix, gojoin, simdet,
# unitsafe, spanpair, poolcapture, errdrop, simddispatch, metrichygiene —
# see DESIGN.md §8 and §13), followed by the suppression audit so every
# //ratelvet:ignore and its reason is visible in the lint output. Also
# runs as a vet tool:
#   go build -o bin/ratelvet ./cmd/ratelvet && go vet -vettool=bin/ratelvet ./...
.PHONY: lint
lint:
	go run ./cmd/ratelvet ./...
	go run ./cmd/ratelvet audit

# Suppression budget: the //ratelvet:ignore count may not grow past the
# committed baseline (lint-baseline.txt). Remove suppressions freely and
# lower the baseline; raising it requires the justification in review.
.PHONY: suppress-gate
suppress-gate:
	@count=$$(go run ./cmd/ratelvet audit | tail -1 | sed 's/[^0-9]*//g'); \
	base=$$(cat lint-baseline.txt); \
	echo "suppress-gate: $$count suppression(s), baseline $$base"; \
	if [ "$$count" -gt "$$base" ]; then \
		echo "suppress-gate: count $$count exceeds the committed baseline $$base — remove the suppression or justify raising lint-baseline.txt" >&2; \
		exit 1; \
	fi

# The end-to-end benchmark harness is its own module (perfbench/go.mod),
# so the root `go test ./...` never compiles it: vet and test it here so an
# internal API change cannot break the benchmark unnoticed.
.PHONY: perfbench
perfbench:
	cd perfbench && go vet ./... && go test ./...

# Tier-2 umbrella: static analysis + repo analyzers + race detector +
# portable-fallback pass + core-count pass + benchmark-harness build and tests +
# one-iteration benchmark smoke (benchmarks must at least run) +
# snapshot-integrity gate.
.PHONY: check
check: vet lint suppress-gate race test-nosimd test-procs perfbench bench-smoke bench-gate

# Snapshot-integrity gate: every committed BENCH_*.json must parse and
# self-diff clean at zero tolerance, so the diff tool and the snapshot
# schema can't drift apart. Compare a fresh run against a snapshot with
#   go run ./cmd/ratelbench -tol 0.1 diff BENCH_x.json new.json
.PHONY: bench-gate
bench-gate:
	@for f in BENCH_*.json; do \
		echo "bench-gate: $$f"; \
		go run ./cmd/ratelbench -tol 0 diff $$f $$f || exit 1; \
	done

# Kernel micro-benchmarks (BENCH_kernels.json is a committed snapshot).
.PHONY: bench-kernels
bench-kernels:
	go test -bench 'BenchmarkMatMul_|BenchmarkAdamStep_|BenchmarkFP16' -benchmem ./internal/tensor ./internal/opt

# Data-path benchmarks (BENCH_datapath.json is a committed snapshot).
.PHONY: bench-datapath
bench-datapath:
	go test -run '^$$' -bench 'BenchmarkCacheRoundTrip|BenchmarkTrainStep_Swap' -benchtime=100x -benchmem ./internal/engine

# Activation I/O overlap benchmark: synchronous vs write-behind/read-ahead
# at depth 1 and 3 under Table III-shaped device throttles
# (BENCH_overlap.json is a committed snapshot).
.PHONY: bench-overlap
bench-overlap:
	go test -run '^$$' -bench 'BenchmarkTrainStepOverlap' -benchtime=15x -benchmem ./internal/engine

# Transfer-scheduler benchmark: FCFS vs duplex/priority/coalescing array
# scheduling on a mixed activation+optimizer trace at Table III-shaped
# device throttles, plus the adaptive-depth variant (BENCH_sched.json is a
# committed snapshot).
.PHONY: bench-sched
bench-sched:
	go test -run '^$$' -bench 'BenchmarkTrainStepSched' -benchtime=30x -benchmem ./internal/engine

# Optimizer scheduling benchmark: sync vs readiness-ordered state reads vs
# importance-partitioned async Adam at staleness 1 and 2, under the same
# Table III-shaped device throttles (BENCH_optimizer.json is a committed
# snapshot).
.PHONY: bench-optimizer
bench-optimizer:
	go test -run '^$$' -bench 'BenchmarkTrainStepOptSchedule' -benchtime=15x -benchmem ./internal/engine

# Every benchmark in the module at measurement settings.
.PHONY: bench
bench:
	go test -run '^$$' -bench . -benchmem ./...

# Smoke: run every benchmark exactly once so they can't rot. Wired into
# `make check` (and CI through it).
.PHONY: bench-smoke
bench-smoke:
	go test -run '^$$' -bench . -benchtime=1x ./...
