# Development targets. CI runs these as parallel jobs (see
# .github/workflows/ci.yml): lint (fmt+goimports+vet+florvet+staticcheck+
# govulncheck), test, crash-matrix, repl-matrix,
# race-stress, fuzz, bench followed by bench-gate — the benchmark
# regression gate — and macro followed by macro-gate — the macro-scenario
# tail-latency gate. bench-gate diffs the fresh BENCH_latest.json against the
# committed BENCH_baseline.json with cmd/benchdiff and fails on >25%
# regressions in ns/op or allocs/op; macro-gate diffs MACRO_latest.json
# against MACRO_baseline.json with cmd/benchdiff -macro and fails on p99,
# throughput, or shed-rate regressions past its per-metric thresholds. A PR
# that legitimately regresses (or improves) a defended number updates the
# corresponding committed baseline in the same PR, keeping the cost explicit
# and reviewable. The gates are CI steps, not part of `make check`: absolute
# figures only compare within one hardware class, so local machines run the
# snapshots (bench, macro) but not the diffs (bench-gate, macro-gate).

.PHONY: check fmt vet vet-custom build test race-stress repl-matrix bench bench-full bench-gate bench-pair macro macro-gate macro-baseline fuzz

check: fmt vet vet-custom build test bench

fmt:
	@out=$$(gofmt -l . | grep -v '^vendor/' || true); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

# vet-custom runs florvet, the project's own go/analysis suite
# (internal/lint): MVCC snapshot-release discipline, WAL error and
# lock-vs-fsync ordering, epoch publication order, atomic-field
# consistency, and deterministic rendering. DESIGN §10 maps each
# analyzer to the invariant it encodes. Suppressions: per-site
# //florvet:ignore comments, or -<analyzer>.exclude=pkg/prefix flags
# appended to the go vet line.
vet-custom:
	go build -o bin/florvet ./cmd/florvet
	go vet -vettool=$(abspath bin/florvet) ./...

build:
	go build ./...

# -count=1: bench/'s TestExactCountsRepeat measures the process's own write
# syscalls, and a cacheable run adds go test's test-log flushes to them
# (ROADMAP, first open item).
test:
	go test -race -count=1 ./...

# race-stress hammers the concurrent serving core (snapshot equivalence,
# SQL+RunScript+Compact stress, close draining, group commit) repeatedly
# with elevated parallelism; CI runs it on each push.
race-stress:
	GOMAXPROCS=8 go test -race -run Concurrent -count=3 -timeout 15m ./...

# repl-matrix runs the replication crash-equivalence suite under -race:
# the follower kill matrix (every byte of every segment fetch + each
# install/replay boundary), the primary compaction kill matrix, the
# gap/CRC refusal tests, and the randomized primary/replica equivalence
# property. See CONTRIBUTING.md; CI runs it as a parallel job.
repl-matrix:
	go test -race -run 'TestFollowerKillMatrix|TestPrimaryKillMatrix|TestFollowerRefuses|TestReplicaEqualsPrimaryProperty' -count=1 -timeout 15m -v ./internal/repl

# bench runs every benchmark once and snapshots the machine-readable output
# to BENCH_latest.json; CI uploads it as an artifact so the perf trajectory
# is tracked per PR. The C17 parallel-scan benchmarks are re-run under
# -cpu=1,2,4,8 so the snapshot carries per-GOMAXPROCS entries — cmd/benchdiff
# keys multi-cpu benchmarks by their -N suffix and gates each like-for-like.
# bench-full measures at default benchtime for local use.
bench:
	go test -run '^$$' -bench . -benchmem -count=1 -benchtime 1x -json . > BENCH_latest.json \
		|| { cat BENCH_latest.json; exit 1; }
	go test -run '^$$' -bench '^BenchmarkC17' -cpu 1,2,4,8 -benchmem -count=1 -benchtime 1x -json . >> BENCH_latest.json \
		|| { cat BENCH_latest.json; exit 1; }
	@echo "wrote BENCH_latest.json ($$(grep -c 'ns/op' BENCH_latest.json) benchmark results)"

bench-full:
	go test -run '^$$' -bench . -benchmem -count=1 .

# bench-gate is the CI benchmark-regression gate: compare the fresh
# snapshot against the committed baseline and fail on >25% regressions.
bench-gate:
	go run ./cmd/benchdiff -baseline BENCH_baseline.json -latest BENCH_latest.json

# bench-pair is how a performance claim against the repository benchmark
# (bench/, BENCHMARK.json) is measured: cmd/benchpair builds ./bench from the
# committed files of BASE and from the work tree, alternates the two binaries
# (order flipped every pair, one seed per pair) and prints per workload/metric
# both medians, both IQRs, wins/pairs and the declared bound, stamped with
# nproc, GOMAXPROCS, Go version and kernel. About 70 s per pair and workload;
# not part of `make check` or CI. See CONTRIBUTING.md.
#   make bench-pair BASE=HEAD~1 WORKLOAD=train-ingest PAIRS=10
PAIRS ?= 10
bench-pair:
	@test -n "$(BASE)" || { echo "usage: make bench-pair BASE=<rev> [WORKLOAD=a,b] [PAIRS=10]"; exit 2; }
	go run ./cmd/benchpair -base $(BASE) -pairs $(PAIRS) $(if $(WORKLOAD),-workload $(WORKLOAD))

# macro runs every macro-benchmark scenario (mixed logging/query/replication
# workloads, internal/macrobench) for MACRO_SECS seconds each and snapshots
# per-op-class latency histograms, throughput, shed counts, and resource
# deltas to MACRO_latest.json. CI runs 10s per scenario with a fixed seed;
# nightly runs 60s (see nightly.yml).
MACRO_SECS ?= 10
MACRO_SEED ?= 1
macro:
	go run ./cmd/flordb macrobench --duration $(MACRO_SECS)s --seed $(MACRO_SEED) --out MACRO_latest.json all

# macro-gate is the CI macro-scenario regression gate: compare the fresh
# MACRO_latest.json against the committed MACRO_baseline.json, per scenario
# and op class, with per-metric thresholds (see cmd/benchdiff -macro flags
# and DefaultMacroOptions for the single-core-container rationale).
macro-gate:
	go run ./cmd/benchdiff -macro -baseline MACRO_baseline.json -latest MACRO_latest.json

# macro-baseline refreshes the committed baseline from a fresh run, as the
# per-class summary benchdiff -macro reads (count, sum, max, p50/p95/p99): the
# raw histogram buckets stay in MACRO_latest.json, which CI uploads.
macro-baseline: macro
	jq 'del(..|.buckets?)' MACRO_latest.json > MACRO_baseline.json

# fuzz runs a short smoke pass over every native fuzz target (decoder, WAL
# replay, snapshot reader, planned-vs-reference SQL execution, version-store
# journal load); CI runs it on each push.
fuzz:
	go test -run '^$$' -fuzz '^FuzzRecordDecode$$' -fuzztime 10s ./internal/record
	go test -run '^$$' -fuzz '^FuzzSnapshotRead$$' -fuzztime 10s ./internal/record
	go test -run '^$$' -fuzz '^FuzzColumnarPageRead$$' -fuzztime 10s ./internal/record
	go test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime 10s ./internal/storage
	go test -run '^$$' -fuzz '^FuzzPlannedVsScan$$' -fuzztime 10s ./internal/sqlparse
	go test -run '^$$' -fuzz '^FuzzRepoLoad$$' -fuzztime 10s ./internal/vcs
