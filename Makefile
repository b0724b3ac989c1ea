GO ?= go

# Packages whose tests exercise shared mutable state across goroutines;
# these run a second time under the race detector in `make ci`.
RACE_PKGS = ./internal/relation ./internal/catalog ./internal/core ./internal/server ./internal/storage ./internal/qcache ./internal/tx ./internal/wal ./internal/repl ./internal/vec ./internal/integrity ./client

.PHONY: ci build vet fmt test race bench-check chaos e2e-cluster e2e-integrity fuzz fuzz-smoke bench bench-smoke clean

# ci is the tier-1 gate: everything must build, vet and gofmt clean, pass
# tests, pass the race detector on the concurrency-bearing packages, keep
# the read-path microbenchmarks compiling and running, build and test the
# benchmark module, boot a real 1-primary + 2-follower cluster end to end,
# and prove the integrity subsystem over the wire.
ci: vet fmt build test race bench-smoke bench-check e2e-cluster e2e-integrity

# fmt fails if any file needs gofmt (prints the offenders).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# -shuffle=on randomizes test order within each package so accidental
# inter-test state dependence surfaces in CI instead of in the field.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on $(RACE_PKGS)

# bench-check vets and tests the benchmark module under tsbench/run.sh's
# module settings. tsbench/ is its own Go module, so the root's
# `go build ./...` never compiles it: without this target, removing an
# API the benchmark calls would pass every other check.
BENCH_ENV = GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local
bench-check:
	cd tsbench && $(BENCH_ENV) $(GO) vet ./... && $(BENCH_ENV) $(GO) test ./...

# The resilience acceptance tests: idempotent retry through connection
# resets, WAL poisoning to read-only, crash recovery to exactly the acked
# set, and graceful drain — all under the race detector.
chaos:
	$(GO) test -race -run 'Chaos|Drain' -v ./internal/server

# The replication acceptance tests: a WAL-shipping primary with two live
# followers on ephemeral loopback ports — replicated reads with staleness
# bounds, typed read-only refusals, fan-out routing, and the
# kill-and-catch-up chaos path, all under the race detector.
e2e-cluster:
	$(GO) test -race -run 'ClusterE2E|FollowerCatchUp' -v ./internal/server

# The integrity acceptance tests: client-verified inclusion/consistency
# proofs across restart and follower replay, bit-flip detection with
# quarantine and repair, and the kill-mid-scrub chaos path — all under
# the race detector.
e2e-integrity:
	$(GO) test -race -run 'IntegrityE2E' -v ./internal/server

# Short smoke runs of the server decode fuzzers (they run as plain tests in
# `make test`; this gives the mutation engine a little time on each).
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzDecodeTransaction -fuzztime=20s ./internal/server
	$(GO) test -run=NONE -fuzz=FuzzDecodeQuery -fuzztime=20s ./internal/server

# fuzz-smoke gives every fuzz target in the repo 5s of mutation each —
# cheap enough to run before a release. Anchored patterns: go test allows
# one -fuzz target per package invocation.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzDecodeTransaction$$' -fuzztime=5s ./internal/server
	$(GO) test -run=NONE -fuzz='^FuzzDecodeQuery$$' -fuzztime=5s ./internal/server
	$(GO) test -run=NONE -fuzz='^FuzzParse$$' -fuzztime=5s ./internal/tsql
	$(GO) test -run=NONE -fuzz='^FuzzParseExplain$$' -fuzztime=5s ./internal/tsql
	$(GO) test -run=NONE -fuzz='^FuzzParseDuration$$' -fuzztime=5s ./internal/chronon
	$(GO) test -run=NONE -fuzz='^FuzzParseCivil$$' -fuzztime=5s ./internal/chronon
	$(GO) test -run=NONE -fuzz='^FuzzParseGranularity$$' -fuzztime=5s ./internal/chronon
	$(GO) test -run=NONE -fuzz='^FuzzRead$$' -fuzztime=5s ./internal/backlog
	$(GO) test -run=NONE -fuzz='^FuzzWALReplay$$' -fuzztime=5s ./internal/wal
	$(GO) test -run=NONE -fuzz='^FuzzDecodeKeyed$$' -fuzztime=5s ./internal/catalog
	$(GO) test -run=NONE -fuzz='^FuzzDecodeRespecialize$$' -fuzztime=5s ./internal/catalog
	$(GO) test -run=NONE -fuzz='^FuzzRespecializeReplay$$' -fuzztime=5s ./internal/catalog
	$(GO) test -run=NONE -fuzz='^FuzzParseAggregate$$' -fuzztime=5s ./internal/tsql
	$(GO) test -run=NONE -fuzz='^FuzzColumnarRunDecode$$' -fuzztime=5s ./internal/storage
	$(GO) test -run=NONE -fuzz='^FuzzDecodeProof$$' -fuzztime=5s ./internal/integrity
	$(GO) test -run=NONE -fuzz='^FuzzMerkleConsistency$$' -fuzztime=5s ./internal/integrity
	$(GO) test -run=NONE -fuzz='^FuzzDecodeBatchFrame$$' -fuzztime=5s ./internal/catalog
	$(GO) test -run=NONE -fuzz='^FuzzBatchInsertRequest$$' -fuzztime=5s ./internal/server

# Regenerate every figure/claim table plus the serving, durability, and
# overload benchmarks (writes BENCH_*.json in the working directory).
bench:
	$(GO) run ./cmd/benchrunner

# A trimmed benchmark pass: snapshot vs cache-hit time-slices,
# the auto-specialization before/after pair, and the columnar batch
# scan/aggregate microbenchmarks, at -benchtime=100ms. Fast enough for
# ci; the full concurrent-reader experiment is
# `go run ./cmd/benchrunner -exp S4`, the physical-design one -exp S6,
# the batch-execution one -exp S7.
bench-smoke:
	$(GO) test -run=NONE -bench='^(BenchmarkReadPath|BenchmarkAutoSpecialize|BenchmarkInsertBatch)' -benchtime=100ms ./internal/catalog
	$(GO) test -run=NONE -bench='^(BenchmarkColumnarScan|BenchmarkTemporalAggregate)' -benchtime=100ms ./internal/storage

clean:
	rm -f BENCH_*.json
	$(GO) clean ./...
