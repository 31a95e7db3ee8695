#!/bin/sh
# Bench-regression smoke: record a throwaway trajectory point with
# scripts/bench.sh and fail if either hot-path metric —
# llc_access_ns_per_op or predictor_confidence_ns_per_op — regressed more
# than the threshold against the newest checked-in BENCH_*.json. The
# default 15% suits quiet local machines; CI enforces the gate at 20% to
# absorb shared-runner noise while still blocking real regressions. The
# temp point is deleted afterwards; only scripts/bench.sh records real
# trajectory points.
#
# Usage: scripts/bench_regress.sh [threshold-pct]
set -eu
cd "$(dirname "$0")/.."

threshold=${1:-15}
tmpn=9999

base=$(ls BENCH_[0-9]*.json 2>/dev/null |
    sed 's/^BENCH_\([0-9][0-9]*\)\.json$/\1/' | grep -v "^${tmpn}$" |
    sort -n | tail -1)
if [ -z "$base" ]; then
    echo "bench_regress.sh: no checked-in BENCH_*.json baseline" >&2
    exit 1
fi
basefile="BENCH_${base}.json"
tmpfile="BENCH_${tmpn}.json"
trap 'rm -f "$tmpfile"' EXIT

echo "== recording throwaway point $tmpfile (baseline: $basefile)"
scripts/bench.sh "$tmpn"

echo
echo "== regression gate (threshold ${threshold}%)"
awk -v basefile="$basefile" -v curfile="$tmpfile" -v threshold="$threshold" "$(cat scripts/bench_json.awk)"'
BEGIN {
    load(basefile, old); load(curfile, cur)
    nk = split("llc_access_ns_per_op predictor_confidence_ns_per_op", keys, " ")
    bad = 0
    for (i = 1; i <= nk; i++) {
        k = keys[i]
        if (!(k in old) || old[k] <= 0) {
            printf "  %s: missing from baseline %s\n", k, basefile
            bad++
            continue
        }
        if (!(k in cur) || cur[k] <= 0) {
            printf "  %s: missing from current run\n", k
            bad++
            continue
        }
        pct = (cur[k] - old[k]) / old[k] * 100
        verdict = (pct > threshold) ? "REGRESSED" : "ok"
        printf "  %-34s %10.4g -> %10.4g  %+7.1f%%  %s\n", k, old[k], cur[k], pct, verdict
        if (pct > threshold) bad++
    }
    exit bad ? 1 : 0
}
'
echo "PASS: hot-path metrics within ${threshold}% of $basefile"
