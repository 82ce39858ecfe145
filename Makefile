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

.PHONY: check fmt vet vet-custom build test race-stress repl-matrix bench bench-full bench-pair fuzz

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
# SQL+RunScript+Compact+epoch-GC+AS OF stress, replica reads while the
# follower applies, close draining, group commit) repeatedly
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
