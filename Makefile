GO ?= go

# Where `make bench` writes its dated perf snapshot. Override to avoid
# clobbering an existing same-day baseline (e.g. BENCH_OUT=BENCH_20260808b.json).
BENCH_OUT ?= BENCH_$(shell date +%Y%m%d).json

.PHONY: all build test race faultstress schedsoak soaksmoke lint lint-sarif bench benchsmoke obssmoke alertsmoke tracesmoke replaysmoke clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Hammer the fault-injection path: concurrent deploys, board failures and
# recoveries, and invariant audits, twice, under the race detector.
faultstress:
	$(GO) test -race -count=2 -run 'TestFaultStress' ./internal/sched

# Scheduler soak under the race detector: two single-board tenants racing
# for capacity that only exists after a drain (the TOCTOU regression),
# plus deploy/undeploy churn against the incremental defragmenter with
# the invariant auditor — free-run index included — running mid-flight.
schedsoak:
	$(GO) test -race -count=2 -run 'TestDeploySingleBoardRace|TestConcurrentDefragSoak|TestConcurrentDeployRelocateDefrag' ./internal/sched

# Admission-tier soak, shrunk for CI and run under the race detector:
# gateway + backend in-process, a few dozen tenants over a skewed design
# mix, asserting compile dedup, audit parity and queue backpressure. The
# latency ceilings are relaxed relative to the full acceptance run
# (`go run ./cmd/vitalharness soak` with defaults) because the race
# detector and shared CI runners tax wall clock, not correctness.
soaksmoke:
	$(GO) run -race ./cmd/vitalharness soak -tenants 40 -ops 80 -concurrency 8 -p99 50ms -submit-p99 3s

# vet plus the repo's own analyzers: the per-package checks (lockcheck,
# mapdeterminism, errwrap, durationliteral) and the whole-program
# concurrency suite (lockorder, goroutineleak, eventexhaustive,
# metrichygiene). Known debt lives in .vitallint-baseline.json (empty
# today — keep it that way); anything else fails the run. CI calls this
# target, so the two can't drift.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/vitallint -baseline .vitallint-baseline.json ./...

# Same findings as `make lint`, rendered as SARIF 2.1.0 for GitHub code
# scanning. Always writes vitallint.sarif, even when findings fail the
# run (CI uploads it either way).
lint-sarif:
	$(GO) run ./cmd/vitallint -baseline .vitallint-baseline.json -sarif -out vitallint.sarif ./...

# Run the full benchmark suite and record a dated perf trajectory
# (benchmark → ns/op, B/op, allocs/op, reported metrics) so future PRs
# can diff against this baseline.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' . | $(GO) run ./cmd/benchjson -out $(BENCH_OUT)

# One-iteration benchmarks: cheap CI guard that the benchmarks still
# build and run without failing. One iteration each of the Table 2
# compile and the compile-cache hit, and of the allocator churn at 100,
# 1k and 10k boards, whose free-run index must verify clean afterwards.
# Timing is not checked: nothing asserts the 10k-board cost is
# sublinear.
benchsmoke:
	$(GO) test -run=NONE -bench='BenchmarkTable2Compile$$|BenchmarkCompileCacheHit|BenchmarkDeploy10kBoards' -benchtime=1x .

# The smoke targets below are subcommands of cmd/vitalharness, which
# boots vitald's stack and a vitalgw gateway in-process on loopback
# (internal/stacktest) and exits non-zero on the first broken surface.
#
# Observability smoke: deploy over HTTP, scrape the Prometheus
# exposition through the strict validator, and fetch the deploy trace.
obssmoke:
	$(GO) run ./cmd/vitalharness core

# Alerting smoke: placement-quality report, channel-traffic metrics from a
# live execution, then a board fault observed end to end — fault,
# evacuation and firing alert all arriving over the SSE event stream.
alertsmoke:
	$(GO) run ./cmd/vitalharness alerts

# Tracing + SLO smoke: through the gateway in front of the backend, one
# submit reassembled as a single contiguous cross-process trace (gateway
# admission → compile → queue wait → worker deploy), tenant RED/SLO
# series with exemplars in the exposition, then a backend outage driving
# a multi-window burn-rate alert to firing on GET /slo.
tracesmoke:
	$(GO) run ./cmd/vitalharness trace

# Replay smoke: drive the bundled example tenant mix through the
# gateway+backend stack under the race detector, scraping both
# tiers into a TSDB, then assert (-check) that every *_total series is
# monotone, the utilization curve is non-empty with a nonzero peak, and
# both tiers' Prometheus expositions — vital_tsdb_* self-metrics
# included — pass the strict validator.
replaysmoke:
	$(GO) run -race ./cmd/vitalharness replay -trace cmd/vitalharness/testdata/example-trace.json -speed 4 -check -out -

clean:
	$(GO) clean ./...
