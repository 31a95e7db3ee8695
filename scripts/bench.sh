#!/usr/bin/env sh
# Runs the hot-path benchmark suite and records one throughput trajectory
# point as BENCH_<n>.json at the repository root (next free n, or the
# argument if given). When a previous point BENCH_<n-1>.json exists, a
# per-metric delta table is printed so a regression is visible at record
# time, not just in review. A benchmark that fails to produce one of the
# expected metrics aborts the script rather than writing a partial JSON.
# docs/PERFORMANCE.md explains each metric.
#
# Usage: scripts/bench.sh [n]
set -eu
cd "$(dirname "$0")/.."

n=${1:-}
if [ -z "$n" ]; then
    n=1
    while [ -e "BENCH_${n}.json" ]; do n=$((n + 1)); done
fi
out="BENCH_${n}.json"

micro=$(go test -run NONE -bench 'BenchmarkPredictorConfidence|BenchmarkLLCAccess' \
    -benchmem -benchtime 2s ./internal/core)
gen=$(go test -run NONE -bench BenchmarkGeneratorBatch -benchmem -benchtime 2s ./internal/workload)
e2e=$(go test -run NONE -bench BenchmarkEndToEndFig6Segment -benchmem -benchtime 1x -count 3 .)

printf '%s\n%s\n%s\n' "$micro" "$gen" "$e2e" | awk -v out="$out" '
function metric(name, field) { m[name] = field }
/^BenchmarkPredictorConfidence/      { metric("predictor_confidence_ns_per_op", $3) }
/^BenchmarkLLCAccess/                { metric("llc_access_ns_per_op", $3) }
/^BenchmarkGeneratorBatch\/next/     { metric("generator_next_ns_per_op", $3) }
/^BenchmarkGeneratorBatch\/batch256/ { metric("generator_batch256_ns_per_op", $3) }
/^BenchmarkEndToEndFig6Segment\/lru/ {
    for (i = 1; i < NF; i++) if ($(i+1) == "LLCacc/s") lru += $i / 3
}
/^BenchmarkEndToEndFig6Segment\/mpppb/ {
    for (i = 1; i < NF; i++) if ($(i+1) == "LLCacc/s") mpppb += $i / 3
}
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
END {
    metric("end_to_end_lru_llc_accesses_per_sec", lru)
    metric("end_to_end_mpppb_llc_accesses_per_sec", mpppb)
    ks = "predictor_confidence_ns_per_op llc_access_ns_per_op generator_next_ns_per_op generator_batch256_ns_per_op end_to_end_lru_llc_accesses_per_sec end_to_end_mpppb_llc_accesses_per_sec"
    nk = split(ks, keys, " ")
    # Every expected metric must have been parsed from the benchmark
    # output; a missing one means a benchmark was renamed, skipped, or
    # failed, and a silently partial trajectory point is worse than none.
    missing = 0
    for (i = 1; i <= nk; i++) {
        if (!(keys[i] in m) || m[keys[i]] + 0 <= 0) {
            printf "bench.sh: metric %s missing from benchmark output\n", keys[i] > "/dev/stderr"
            missing++
        }
    }
    if (missing) exit 1
    "date -u +%Y-%m-%dT%H:%M:%SZ" | getline date
    "go env GOVERSION" | getline gover
    printf "{\n" > out
    printf "  \"date\": \"%s\",\n", date > out
    printf "  \"go\": \"%s\",\n", gover > out
    printf "  \"cpu\": \"%s\",\n", cpu > out
    printf "  \"benchmarks\": {\n" > out
    for (i = 1; i <= nk; i++) {
        sep = (i < nk) ? "," : ""
        printf "    \"%s\": %s%s\n", keys[i], m[keys[i]] + 0, sep > out
    }
    printf "  }\n}\n" > out
}
'
echo "wrote $out:"
cat "$out"

# Delta table against the previous trajectory point, when one exists.
prev="BENCH_$((n - 1)).json"
if [ -e "$prev" ]; then
    echo
    echo "delta vs $prev:"
    awk -v prevfile="$prev" -v curfile="$out" "$(cat scripts/bench_json.awk)"'
    BEGIN {
        load(prevfile, old); load(curfile, cur)
        printf "  %-42s %14s %14s %9s\n", "metric", "previous", "current", "change"
        ks = "predictor_confidence_ns_per_op llc_access_ns_per_op generator_next_ns_per_op generator_batch256_ns_per_op end_to_end_lru_llc_accesses_per_sec end_to_end_mpppb_llc_accesses_per_sec"
        nk = split(ks, keys, " ")
        for (i = 1; i <= nk; i++) {
            k = keys[i]
            if (!(k in old)) { printf "  %-42s %14s %14.6g %9s\n", k, "-", cur[k], "new"; continue }
            pct = (cur[k] - old[k]) / old[k] * 100
            # For ns/op metrics lower is better; for accesses/sec higher is.
            better = (k ~ /per_sec$/) ? (pct >= 0) : (pct <= 0)
            printf "  %-42s %14.6g %14.6g %+8.1f%% %s\n", k, old[k], cur[k], pct, better ? "" : "(worse)"
        }
    }
    '
fi
