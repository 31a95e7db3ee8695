#!/usr/bin/env bash
# Compares the repository benchmark (bench/) of this tree against a base
# commit. It checks BASE out into a temporary git worktree, removed on
# every exit, and runs ten pairs of `bash bench/run.sh --seed i ...`, one
# run from each tree's root, the base first on odd seeds and the change
# first on even ones, so drift of the host's speed lands on both sides.
# Each side's {"workload": ...} result lines go to a file of their own,
# and `bash bench/run.sh --compare` judges them under this tree's
# BENCHMARK.json. Its exit code is the script's: 1 when any end-to-end
# metric of any workload is worse than its bound, or the change fails
# more operations than the base (bench/README.md, "Comparing two
# commits"); 0 otherwise, `unresolved` verdicts included. A run that
# prints no result line, or another number of them than the first run (a
# crashed workload), fails the comparison too: it would misalign the
# pairs.
#
# Usage: scripts/bench_compare.sh BASE [bench/run.sh flags...]
#   scripts/bench_compare.sh HEAD~1 --seconds 5
#
# Every flag goes to both sides' runs; --seed is the script's own, and
# --workload must stay `all` (the default), the only form that prints
# result lines. Run it on an idle host: the two sides take turns, but
# anything else running takes CPU time from whichever side is measuring.
set -euo pipefail

if [[ $# -lt 1 ]]; then
	echo "usage: scripts/bench_compare.sh BASE [bench/run.sh flags...]" >&2
	exit 2
fi
base=$1
shift
cd "$(dirname "$0")/.."
root=$(pwd)
if ! rev=$(git rev-parse --verify --quiet "$base^{commit}"); then
	echo "bench_compare.sh: $base is not a commit" >&2
	exit 2
fi

work=$(mktemp -d)
cleanup() {
	rm -rf "$work"
	git -C "$root" worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM
git worktree add --quiet --detach "$work/base" "$rev"

want=
for i in $(seq 1 10); do
	sides="base change"
	if ((i % 2 == 0)); then
		sides="change base"
	fi
	for side in $sides; do
		dir=$root
		if [[ $side == base ]]; then
			dir=$work/base
		fi
		code=0
		(cd "$dir" && bash bench/run.sh --seed "$i" "$@") >"$work/run.out" || code=$?
		if ((code == 2)); then
			cat "$work/run.out" >&2
			exit 2
		fi
		grep '^{"workload"' "$work/run.out" >>"$work/$side.jsonl" || true
		n=$(grep -c '^{"workload"' "$work/run.out" || true)
		echo "bench_compare.sh: seed $i, $side: exit $code, $n result lines" >&2
		want=${want:-$n}
		if ((n == 0 || n != want)); then
			echo "bench_compare.sh: the first run printed $want result lines; this one's output:" >&2
			cat "$work/run.out" >&2
			exit 1
		fi
	done
done

bash bench/run.sh --compare "$work/base.jsonl" "$work/change.jsonl"
