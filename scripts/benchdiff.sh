#!/usr/bin/env sh
# Compares fresh benchmark runs against the committed baselines and
# warns — loudly, but non-blockingly — when reports/s regresses more
# than 20% on any benchmark, or when wirebytes/report grows more than
# 20% on any benchmark that reports it. Every committed BENCH_*.json
# participates (transport, ingest, epoch, whatever future suites add);
# the striped/cbatch wire-cost ratio at 16 connections — the PR 10
# headline guarantee — additionally runs against the ingest file.
#
#   sh scripts/benchdiff.sh                       # compare every BENCH_*.json
#   sh scripts/benchdiff.sh base.json cur.json    # compare one explicit pair
#
# In the default mode each baseline comes from `git show HEAD:` (so the
# comparison works after `make bench` overwrote the working-tree copies)
# and the current run is the working-tree file of the same name. Exit
# status is always 0: benchmark noise on shared CI runners must not
# block merges, the ::warning:: annotation is the signal — and a missing
# or malformed JSON on either side of any pair is itself only a notice
# (a broken baseline must not fail the pipeline mid-pipe under set -e;
# it means there is nothing to compare for that suite).
set -eu

base_tmp=""
base_pairs=""
cur_pairs=""
cleanup() {
    rm -f "$base_tmp" "$base_pairs" "$cur_pairs"
}
trap cleanup EXIT
base_tmp="$(mktemp)"
base_pairs="$(mktemp)"
cur_pairs="$(mktemp)"

# extract FILE — prints "name reports_per_s" pairs, normalizing the
# trailing -N GOMAXPROCS suffix so runs from different machines compare.
# Tolerant by construction: lines that do not look like benchmark
# entries simply produce no output, so a malformed file yields an empty
# pair list (detected by the caller) instead of a mid-pipe error.
extract() {
    awk -F'"' '/"name":/ {
        name = $4
        sub(/-[0-9]+$/, "", name)
        if (match($0, /"reports_per_s": [0-9.eE+]+/)) {
            rps = substr($0, RSTART + 17, RLENGTH - 17)
            print name, rps
        }
    }' "$1" 2>/dev/null || true
}

# extract_wire FILE — same, but "name wire_bytes_per_report" pairs
# (present only in suites whose benchmarks report the metric).
extract_wire() {
    awk -F'"' '/"name":/ {
        name = $4
        sub(/-[0-9]+$/, "", name)
        if (match($0, /"wire_bytes_per_report": [0-9.eE+]+/)) {
            wbr = substr($0, RSTART + 25, RLENGTH - 25)
            print name, wbr
        }
    }' "$1" 2>/dev/null || true
}

warned=0

# compare_pair LABEL BASELINE CURRENT — warns on every >20% reports/s
# drop; returns normally no matter what it finds.
compare_pair() {
    label="$1"
    extract "$2" > "$base_pairs"
    extract "$3" > "$cur_pairs"
    if ! [ -s "$base_pairs" ]; then
        echo "benchdiff: $label baseline is malformed or has no reports/s entries; skipping"
        return 0
    fi
    if ! [ -s "$cur_pairs" ]; then
        echo "benchdiff: $label current run is malformed or has no reports/s entries; skipping"
        return 0
    fi
    while read -r name base; do
        cur="$(awk -v n="$name" '$1 == n { print $2; exit }' "$cur_pairs")"
        [ -z "$cur" ] && continue
        regressed="$(awk -v b="$base" -v c="$cur" 'BEGIN { print (b > 0 && c < 0.8 * b) ? 1 : 0 }')"
        if [ "$regressed" = "1" ]; then
            echo "::warning::$label benchmark $name regressed: $cur reports/s vs baseline $base (>20% drop)"
            warned=1
        fi
    done < "$base_pairs"
    # Wire-cost regression: unlike reports/s (noisy on shared runners),
    # wirebytes/report is deterministic per frame grammar, so a >20%
    # growth means an encoding change made every report fatter.
    extract_wire "$2" > "$base_pairs"
    extract_wire "$3" > "$cur_pairs"
    if [ -s "$base_pairs" ] && [ -s "$cur_pairs" ]; then
        while read -r name base; do
            cur="$(awk -v n="$name" '$1 == n { print $2; exit }' "$cur_pairs")"
            [ -z "$cur" ] && continue
            fatter="$(awk -v b="$base" -v c="$cur" 'BEGIN { print (b > 0 && c > 1.2 * b) ? 1 : 0 }')"
            if [ "$fatter" = "1" ]; then
                echo "::warning::$label benchmark $name wire cost regressed: $cur wirebytes/report vs baseline $base (>20% growth)"
                warned=1
            fi
        done < "$base_pairs"
    fi
    return 0
}

# ratio_check CURRENT — the PR 10 guarantee: the v2 CBATCH frame must
# carry a report in at most half the wire bytes of the v1 striped path
# (ingest suite only).
ratio_check() {
    extract_wire "$1" > "$cur_pairs"
    wratio="$(awk '
        $1 ~ /striped\/conns=16$/ { s = $2 }
        $1 ~ /cbatch\/conns=16$/  { c = $2 }
        END { if (s > 0 && c > 0) printf "%.2f", s / c }
    ' "$cur_pairs")"
    if [ -n "$wratio" ]; then
        below="$(awk -v r="$wratio" 'BEGIN { print (r < 2.0) ? 1 : 0 }')"
        if [ "$below" = "1" ]; then
            echo "::warning::striped/cbatch wire-cost ratio at 16 conns is ${wratio}x (< 2x target)"
            warned=1
        else
            echo "benchdiff: striped/cbatch wire-cost ratio at 16 conns: ${wratio}x"
        fi
    fi
    return 0
}

if [ "$#" -ge 1 ]; then
    # Explicit pair mode: one baseline against one current file.
    BASELINE="$1"
    CURRENT="${2:-BENCH_ingest.json}"
    if [ -f "$BASELINE" ] && [ -f "$CURRENT" ]; then
        compare_pair "$(basename "$CURRENT" .json | sed 's/^BENCH_//')" "$BASELINE" "$CURRENT"
        ratio_check "$CURRENT"
    else
        echo "benchdiff: $BASELINE or $CURRENT not found; skipping comparison"
    fi
else
    # Default mode: every benchmark suite committed at HEAD.
    suites="$(git ls-tree --name-only HEAD 2>/dev/null | grep -x 'BENCH_[A-Za-z0-9_]*\.json' || true)"
    if [ -z "$suites" ]; then
        echo "benchdiff: no committed BENCH_*.json baselines; skipping comparison"
        exit 0
    fi
    compared=0
    for f in $suites; do
        label="$(echo "$f" | sed 's/^BENCH_//; s/\.json$//')"
        if ! git show "HEAD:$f" > "$base_tmp" 2>/dev/null; then
            echo "benchdiff: no committed $f baseline; skipping"
            continue
        fi
        if ! [ -f "$f" ]; then
            echo "benchdiff: $f not in working tree (run make bench first); skipping"
            continue
        fi
        compare_pair "$label" "$base_tmp" "$f"
        compared=$((compared + 1))
        case "$f" in
        *ingest*) ratio_check "$f" ;;
        esac
    done
    [ "$compared" -gt 0 ] || echo "benchdiff: nothing to compare"
fi

if [ "$warned" = "0" ]; then
    echo "benchdiff: no throughput regressions vs baseline"
fi
exit 0
