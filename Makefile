# Build / test entry points. `make check` is the tier-1 gate (see README):
# gofmt + vet plus the fast test suite under the race detector — the
# parallel kernels and the restart portfolio must stay race-clean. The
# large-synthetic and e2e V-cycle tests hide behind -short and run in the
# `test-slow` tier (its own CI job), keeping check's wall time flat.

GO ?= go

.PHONY: build test test-slow check fmt-check race bench bench-json bench-smoke obs-bench obs-smoke serve-smoke cluster-smoke sweep-smoke fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Slow tier: the full suite with nothing skipped — the 100k-gate V-cycle
# determinism sweep and the million-gate e2e included — under the race
# detector. Separate CI job; run locally before perf-sensitive changes.
test-slow:
	$(GO) test -race -count=1 -timeout 45m ./...

# Formatting gate: gofmt -l prints offending files and stays silent when
# clean; the shell check turns any output into a failure.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# The benchmark (perfbench/) is its own module, outside the root ./...,
# so check vets and tests it separately: an API change in serve,
# partition or terms must not break its build unnoticed.
check:
	$(MAKE) fmt-check
	$(GO) vet ./...
	$(GO) -C perfbench vet ./...
	$(GO) test -short -race ./...
	$(GO) -C perfbench test ./...
	$(GO) test -run xxx -bench 'SolveTrace|JSONLEmit|CacheHit' -benchtime 1x ./internal/partition ./internal/obs ./internal/serve
	$(MAKE) bench-smoke
	$(MAKE) obs-smoke
	$(MAKE) serve-smoke
	$(MAKE) sweep-smoke
	$(MAKE) cluster-smoke

bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# Solver hot-path perf trajectory: full measurement run via the gpp-bench
# -perf harness (now including the checkpoint-interval sweep). Label the
# series after the commit under measurement and append so before/after
# history accumulates, e.g.:
#   make bench-json PERF_LABEL=pr5-ckpt PERF_OUT=BENCH_PR5.json
PERF_LABEL ?= head
PERF_OUT ?= BENCH_PR10.json
# Measurement robustness on shared hosts: each cell is measured in
# PERF_REPEAT independent windows of PERF_BENCHTIME each and the median
# window is recorded, so a multi-second hypervisor stall blanketing one
# window cannot distort a cell. Raise either knob when successive runs of
# the same commit still disagree.
PERF_BENCHTIME ?= 1s
PERF_REPEAT ?= 3
bench-json:
	$(GO) run ./cmd/gpp-bench -perf -perf-label $(PERF_LABEL) -perf-out $(PERF_OUT) -perf-append \
		-perf-benchtime $(PERF_BENCHTIME) -perf-repeat $(PERF_REPEAT)

# Liveness check for the perf harness itself (one tiny circuit, one op per
# cell, output discarded — seconds, not minutes, so it rides in `make
# check`) plus the perf-trajectory regression gate: `gpp-inspect bench`
# digests the committed BENCH_*.json series and fails when the newest one
# regressed >10% over the recent baseline. Deterministic — it reads
# committed measurements, it does not re-measure.
bench-smoke:
	$(GO) run ./cmd/gpp-bench -perf -perf-smoke -perf-out=- > /dev/null
	$(GO) run ./cmd/gpp-inspect bench > /dev/null

# Telemetry overhead benchmarks: SolveTraceOff vs SolveTraceNop bounds the
# cost of the instrumentation hooks with tracing off (must stay <2% and
# alloc-free — TestSolveIterationPathAllocFree guards the alloc half);
# SolveTraceJSONL and JSONLEmit price the enabled path. CacheHit prices
# gpp-serve's cache-hit path, job event log included, in B/op and
# allocs/op.
obs-bench:
	$(GO) test -run xxx -bench 'SolveTrace|JSONLEmit|CacheHit' -benchmem ./internal/partition ./internal/obs ./internal/serve

# End-to-end observability smoke (DESIGN.md §13): boots a real gpp-serve
# with tracing and an SLO configured, runs one job, and asserts the span
# profile, /v1/debug/ops (JSON and text waterfall), the SLO metrics and
# /healthz are all well-formed.
obs-smoke:
	$(GO) test -race -count=1 -run 'TestObsSmoke$$' -v ./cmd/gpp-serve

# Daemon drain proof (DESIGN.md §9): one fresh run of the serve smoke —
# 32 concurrent mixed cached/uncached submissions against a live daemon,
# a real SIGTERM mid-flight, then an audit that every accepted job
# drained to a complete, byte-consistent response. Race detector on.
serve-smoke:
	$(GO) test -race -count=1 -run 'TestServeSmoke$$' -v ./internal/serve

# Batch-sweep proof (DESIGN.md §16): a three-regime portfolio submitted as
# one POST /v1/sweeps against a live server — ranked results, per-cell
# cost breakdowns, individually cache-hittable cells — plus gpp-sweep's
# local and -addr modes returning the same cells for one spec, and a CLI
# liveness run through the in-process facade. Race detector on.
sweep-smoke:
	$(GO) test -race -count=1 -run 'TestSweepThreeRegimes$$' -v ./internal/serve
	$(GO) test -race -count=1 -run 'TestSweepLocalMatchesDaemon$$' -v ./cmd/gpp-sweep
	$(GO) run ./cmd/gpp-sweep -circuit KSA4 -ks 3,4 > /dev/null

# Three-node cluster proof (DESIGN.md §14): real gpp-serve subprocesses
# with static membership — consistent-hash routing, cross-node cache
# reads, a SIGKILL mid-queue with journal replay plus work stealing, and
# a clean SIGTERM drain. Node logs land in CLUSTER_SMOKE_LOG_DIR (CI
# uploads them on failure).
CLUSTER_SMOKE_LOG_DIR ?=
cluster-smoke:
	CLUSTER_SMOKE_LOG_DIR=$(CLUSTER_SMOKE_LOG_DIR) \
		$(GO) test -race -count=1 -run 'TestClusterSmoke$$' -v ./cmd/gpp-serve

# Run every fuzz target for 30s each (regular `make test` already runs
# their seed corpora as unit tests). go test -fuzz takes one target in one
# package per run, hence one line per target.
fuzz:
	$(GO) test -run xxx -fuzz '^FuzzSolveOptions$$' -fuzztime 30s ./internal/partition
	$(GO) test -run xxx -fuzz '^FuzzSnapshotDecode$$' -fuzztime 30s ./internal/partition
	$(GO) test -run xxx -fuzz '^FuzzVCycleSnapshotDecode$$' -fuzztime 30s ./internal/multilevel
	$(GO) test -run xxx -fuzz '^FuzzCoarsen$$' -fuzztime 30s ./internal/multilevel
	$(GO) test -run xxx -fuzz '^FuzzTermWeightsFingerprint$$' -fuzztime 30s ./internal/terms
	$(GO) test -run xxx -fuzz '^FuzzParse$$' -fuzztime 30s ./internal/def
	$(GO) test -run xxx -fuzz '^FuzzParse$$' -fuzztime 30s ./internal/lef
	$(GO) test -run xxx -fuzz '^FuzzJobRequest$$' -fuzztime 30s ./internal/serve
