# Developer entry points; CI runs the same targets.

.PHONY: build test race bench benchdiff cover fmt-check e2e overload-e2e lint vet-fast hdrvet suppressions

# Pinned versions for the externally installed lint tools, so the CI
# lint job is reproducible. hdrvet itself is built from this tree and
# needs no pin; the module stays dependency-free (see README).
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

HDRVET := bin/hdrvet

build:
	go build ./...

# hdrvet builds the collector's invariant checker (frame-drain, Kahan
# accumulation, privacy-taint, nilness, lock-hold, lock-order,
# wire-frame registry, map-order — see internal/analyzers) into
# bin/hdrvet.
hdrvet:
	go build -o $(HDRVET) ./cmd/hdrvet

# suppressions audits every //hdrvet:ignore directive in the tree:
# lists each with file:line and reason, and fails when any is stale
# (suppresses nothing today) or malformed.
suppressions: hdrvet
	./$(HDRVET) -suppressions ./...

# lint is the full static-analysis gate: gofmt, plain `go vet` (its
# stock passes, atomic and copylocks among them), the hdrvet suite over
# every package via `go vet -vettool` (which replaces the stock passes,
# hence both runs), and staticcheck when installed (CI installs it at
# STATICCHECK_VERSION; locally it is optional).
lint: fmt-check hdrvet
	go vet ./...
	go vet -vettool=$(CURDIR)/$(HDRVET) ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it at $(STATICCHECK_VERSION))"; fi

# vet-fast is the quick pre-commit check: only framedrain + wireframe
# (the two analyzers guarding the wire protocol), run standalone so it
# skips the full vet harness. Seconds, not minutes.
vet-fast: hdrvet
	./$(HDRVET) -fast ./...

test:
	go test ./...

race:
	go test -race ./...

# bench runs the collector-side benchmark suites and emits the
# machine-readable perf trajectories: BENCH_ingest.json (multi-connection
# ingest with -benchmem, INGEST_BENCHTIME=1s by default; use 2s for
# stable numbers) and BENCH_epoch.json (continual-collection ingest).
bench:
	sh scripts/bench.sh

# benchdiff compares the fresh BENCH_ingest.json against the committed
# baseline and prints warning annotations on >20% reports/s regressions
# (non-blocking: exit status is always 0).
benchdiff:
	sh scripts/benchdiff.sh

# cover runs the race-enabled test suite with a coverage profile and
# prints the per-function summary (CI uploads coverage.out as an
# artifact).
cover:
	go test -race -coverprofile=coverage.out -covermode=atomic ./...
	go tool cover -func=coverage.out

# fmt-check fails (listing the offenders) when any file needs gofmt.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# e2e runs the crash-recovery end-to-end: kill -9 a checkpointing
# collector, restart it, and assert the restored estimates are
# bitwise-equal; its final phase streams through a twice-cut
# fault-injection proxy and asserts the reconnecting client's fold
# equals a clean run's (scripts/crash_recovery_e2e.sh).
e2e:
	sh scripts/crash_recovery_e2e.sh

# overload-e2e runs the graceful-degradation end-to-end: a live
# collector with -max-conns/-max-inflight/-idle-timeout set is driven
# past each limit and must shed with retryable NACKs, stay responsive
# for admitted traffic, force-close stalled connections, and drain
# cleanly afterward (scripts/overload_e2e.sh).
overload-e2e:
	sh scripts/overload_e2e.sh
