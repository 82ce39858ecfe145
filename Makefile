# Development targets. CI runs these as parallel jobs (see
# .github/workflows/ci.yml): lint (fmt+goimports+vet+florvet+staticcheck+
# govulncheck), test, crash-matrix, repl-matrix, race-stress, fuzz, and the
# bench smoke pass. There is one measuring instrument: bench-pair runs the
# repository benchmark (bench/, BENCHMARK.json) on a base revision and the
# work tree in alternating pairs and gives each workload/metric its verdict.
# The root bench_test.go benchmarks are reproducers of the figures and
# claims in EXPERIMENTS.md, with no gate and no committed baseline: absolute
# figures only compare within one machine, and only paired runs separate a
# change from noise.

.PHONY: check fmt vet vet-custom build test crash-matrix race-stress repl-matrix bench bench-full bench-pair fuzz loc

check: fmt vet vet-custom build test bench

fmt:
	@out=$$(gofmt -l . | grep -v '^vendor/' || true); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

# vet-custom runs florvet, the project's own go/analysis suite
# (internal/lint), five analyzers: WAL error checks, lock-vs-fsync
# ordering, epoch publication order, atomic-field consistency, and
# deterministic rendering. DESIGN §10 maps each
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

# crash-matrix runs the crash-injection suite: every root TestCrash* test
# (WAL byte truncation, a compaction killed at every step it performs, the
# version-journal x WAL crash cut), the lifecycle model test (restarts,
# compactions and crashes cut at random bytes of the active WAL, checked at
# every epoch after every op against the committed transactions, and its
# snapshot-plus-tail share of reopen and crash ops), commits
# racing compaction, the storage layer's fault-FS matrices (snapshot
# fallback with its recovery and compaction arms), a checkpoint whose log
# append fails leaving no row, the checkpoint lines of older releases
# (rebuilt from objects/ byte for byte, or refused naming a missing or
# corrupt blob, by recovery, compaction and Open), its refusals
# to rebuild state around lost history (a segment gap, a corrupt snapshot
# whose segments are gone — recovery and compaction alike),
# the incremental-snapshot property (every compaction's file equals a full
# rewrite of the fully replayed log, and testdata/parent_project compacts to
# known bytes), recovery's and compaction's fallback past a CRC-valid
# snapshot the reader refuses, and the storagetest package's own tests. Kill points are enumerated from a
# clean run's trace of FS steps (internal/storage/storagetest); CI runs it as
# a parallel job.
crash-matrix:
	go test -run 'TestCrash|TestLifecycleModel|TestSnapshotPlusTail|TestConcurrentCommits|TestLegacyCheckpointProjectOpens' -count=1 -v .
	go test -run 'TestRecoverFallsBackFromCorruptSnapshot|TestSegmentGapRefused|TestRecoveryRefusesFallback|TestLegacyCheckpointRecovery|TestIncrementalSnapshotEqualsFullRewrite|TestParentProjectCompactsToKnownBytes' -count=1 -v ./internal/storage
	go test -run 'TestCheckpointRowFollowsDurableWrite' -count=1 -v ./internal/replay
	go test -run 'TestRecoveryFallsBackFromRefusedSnapshot' -count=1 -v ./internal/record
	go test -count=1 -v ./internal/storage/storagetest

# race-stress hammers the concurrent serving core (the lifecycle model's
# readers pinning epochs beside every commit and compaction,
# SQL+RunScript+Compact+AS OF stress, replica reads while the
# follower applies, close draining, group commit — the WAL tests that hold
# a commit's fsync on a gated FS: appends beside it, commits and a Seal
# sharing one fsync after it — and hindsight replay
# beside recording — TestConcurrentHindsightBesideRecording: one ctx_id
# allocator, the backfill's pins held and released, and page-partial
# aggregates at mixed pins beside an inserting writer —
# TestConcurrentPageAggregates) repeatedly with elevated parallelism; CI runs
# it on each push.
race-stress:
	GOMAXPROCS=8 go test -race -run 'Concurrent|LifecycleModel' -count=3 -timeout 15m ./...

# repl-matrix runs the replication crash-equivalence suite under -race:
# the follower kill matrix (every FS step of a clean catch-up: every byte of
# every segment fetch, each temp fsync, rename and directory fsync), the
# primary compaction kill matrix (every step of a clean compaction), the
# gap/CRC refusal tests, the randomized primary/replica equivalence
# property, and the root lifecycle model test, whose schedules
# bootstrap a follower from a snapshot, restart it, catch it up and promote
# it. See CONTRIBUTING.md; CI runs it as a parallel job.
repl-matrix:
	go test -race -run 'TestFollowerKillMatrix|TestPrimaryKillMatrix|TestFollowerRefuses|TestReplicaEqualsPrimaryProperty' -count=1 -timeout 15m -v ./internal/repl
	go test -race -run 'TestLifecycleModel' -count=1 -timeout 15m -v .

# bench is a smoke pass: every benchmark runs once, so a benchmark that no
# longer builds or whose own correctness checks fail breaks the build. Its
# timings are single samples and mean nothing. bench-full measures at the
# default benchtime for local use.
bench:
	go test -run '^$$' -bench . -benchtime 1x .

bench-full:
	go test -run '^$$' -bench . -benchmem -count=1 .

# bench-pair is how a performance claim is measured: cmd/benchpair builds
# ./bench from the committed files of BASE and from the work tree, alternates
# the two binaries (order flipped every pair, one seed per pair) and prints
# per workload/metric both medians, both IQRs, wins/pairs, the declared bound
# and the verdict (gain, regression, unresolved, same, missing), stamped with
# nproc, GOMAXPROCS, Go version and kernel. About 70 s per pair and workload;
# not part of `make check` or CI. See CONTRIBUTING.md.
#   make bench-pair BASE=HEAD~1 WORKLOAD=train-ingest PAIRS=10
PAIRS ?= 10
bench-pair:
	@test -n "$(BASE)" || { echo "usage: make bench-pair BASE=<rev> [WORKLOAD=a,b] [PAIRS=10]"; exit 2; }
	go run ./cmd/benchpair -base $(BASE) -pairs $(PAIRS) $(if $(WORKLOAD),-workload $(WORKLOAD))

# fuzz runs a short smoke pass over every native fuzz target (WAL line
# decoder and encoder against encoding/json, WAL replay, snapshot reader,
# planned-vs-reference SQL execution, version-store journal load, hindsight
# replay against re-execution of generated scripts, script propagation
# against its invariants, the value JSON appender against encoding/json, the
# pivot against its map-per-row reference, the lifecycle model's schedule of
# any seed); CI
# runs it on each push for 10 s per target, the nightly job for 2 minutes:
#   make fuzz FUZZTIME=2m
FUZZTIME ?= 10s
fuzz:
	go test -run '^$$' -fuzz '^FuzzRecordDecode$$' -fuzztime $(FUZZTIME) ./internal/record
	go test -run '^$$' -fuzz '^FuzzRecordEncode$$' -fuzztime $(FUZZTIME) ./internal/record
	go test -run '^$$' -fuzz '^FuzzSnapshotRead$$' -fuzztime $(FUZZTIME) ./internal/record
	go test -run '^$$' -fuzz '^FuzzColumnarPageRead$$' -fuzztime $(FUZZTIME) ./internal/record
	go test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime $(FUZZTIME) ./internal/storage
	go test -run '^$$' -fuzz '^FuzzPlannedVsScan$$' -fuzztime $(FUZZTIME) ./internal/sqlparse
	go test -run '^$$' -fuzz '^FuzzRepoLoad$$' -fuzztime $(FUZZTIME) ./internal/vcs
	go test -run '^$$' -fuzz '^FuzzHindsightPlan$$' -fuzztime $(FUZZTIME) ./internal/replay
	go test -run '^$$' -fuzz '^FuzzPropagate$$' -fuzztime $(FUZZTIME) ./internal/script
	go test -run '^$$' -fuzz '^FuzzAppendJSON$$' -fuzztime $(FUZZTIME) ./internal/relation
	go test -run '^$$' -fuzz '^FuzzPivotMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/pivot
	go test -run '^$$' -fuzz '^FuzzLifecycleModel$$' -fuzztime $(FUZZTIME) .

# loc prints the non-test Go lines of each package directory and their total,
# blank and //-comment lines dropped, vendor/ and testdata/ left out: the
# count ROADMAP and CHANGES.md give for line-count claims.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './vendor/*' ! -path '*/testdata/*' -print0 | \
		xargs -0 awk '!/^[[:space:]]*($$|\/\/)/ { d = FILENAME; sub(/\/[^\/]*$$/, "", d); n[d]++; total++ } \
		END { for (d in n) printf "%7d  %s\n", n[d], d; printf "%7d  total\n", total }' | sort -k2
