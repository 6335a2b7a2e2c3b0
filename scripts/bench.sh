#!/usr/bin/env sh
# Runs the collector-side benchmark suites and emits machine-readable
# perf trajectories (one object per benchmark: iterations, ns/op,
# reports/s, B/op, allocs/op):
#
#   BENCH_ingest.json     collector-side multi-connection ingest
#                         (BenchmarkIngest: striped v1 vs cbatch v2 at 1/4/16
#                         connections); INGEST_BENCHTIME controls its
#                         -benchtime (default 1s — reports/s from a 1x
#                         run would be noise, and benchdiff.sh compares
#                         these numbers against the committed baseline).
#   BENCH_epoch.json      continual-collection ingest (BenchmarkEpochIngest:
#                         one-shot vs epoch-ring over the batch and lane
#                         paths); the ring rows must stay at 0 allocs/op —
#                         rotation is amortized away. EPOCH_BENCHTIME
#                         controls its -benchtime (default 1s).
#
# OUT_INGEST / OUT_EPOCH override the output paths.
set -eu

INGEST_BENCHTIME="${INGEST_BENCHTIME:-1s}"
EPOCH_BENCHTIME="${EPOCH_BENCHTIME:-1s}"
OUT_INGEST="${OUT_INGEST:-BENCH_ingest.json}"
OUT_EPOCH="${OUT_EPOCH:-BENCH_epoch.json}"
PKG="${PKG:-./internal/transport/}"
PKG_EPOCH="${PKG_EPOCH:-./internal/epoch/}"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# emit_json RAW OUT BENCHTIME — converts `go test -bench` output to JSON.
emit_json() {
    goos="$(go env GOOS)"
    goarch="$(go env GOARCH)"
    goversion="$(go env GOVERSION)"

    awk -v goos="$goos" -v goarch="$goarch" -v goversion="$goversion" -v benchtime="$3" '
    BEGIN {
        printf "{\n  \"goos\": \"%s\",\n  \"goarch\": \"%s\",\n  \"goversion\": \"%s\",\n  \"benchtime\": \"%s\",\n  \"benchmarks\": [", goos, goarch, goversion, benchtime
        n = 0
    }
    /^Benchmark/ {
        name = $1
        iters = $2
        ns = ""; bytes = ""; allocs = ""
        rps = ""; wbr = ""
        for (i = 3; i < NF; i++) {
            if ($(i+1) == "ns/op")             ns = $i
            if ($(i+1) == "B/op")              bytes = $i
            if ($(i+1) == "allocs/op")         allocs = $i
            if ($(i+1) == "reports/s")         rps = $i
            if ($(i+1) == "wirebytes/report")  wbr = $i
        }
        if (n++) printf ","
        printf "\n    {\"name\": \"%s\", \"iterations\": %s", name, iters
        if (ns != "")     printf ", \"ns_per_op\": %s", ns
        if (rps != "")    printf ", \"reports_per_s\": %s", rps
        if (wbr != "")    printf ", \"wire_bytes_per_report\": %s", wbr
        if (bytes != "")  printf ", \"bytes_per_op\": %s", bytes
        if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
        printf "}"
    }
    END { print "\n  ]\n}" }
    ' "$1" > "$2"

    echo "wrote $2 ($(grep -c '"name"' "$2") benchmarks)"
}

go test -run='^$' -bench='^BenchmarkIngest$' \
    -benchmem -benchtime="$INGEST_BENCHTIME" "$PKG" | tee "$raw"
emit_json "$raw" "$OUT_INGEST" "$INGEST_BENCHTIME"

go test -run='^$' -bench='^BenchmarkEpochIngest$' \
    -benchmem -benchtime="$EPOCH_BENCHTIME" "$PKG_EPOCH" | tee "$raw"
emit_json "$raw" "$OUT_EPOCH" "$EPOCH_BENCHTIME"
