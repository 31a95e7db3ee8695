#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run from the
# root of the repository; every argument goes to the benchmark:
#
#   bash bench/run.sh                                   # all four workloads
#   bash bench/run.sh --workload st_timing --seed 3 --seconds 20 --trace 0
#   bash bench/run.sh --compare parent.jsonl change.jsonl
#
# The build cache, the binary and trace output stay under .bench_build/ in
# the current directory, and the build never reaches the network.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/sim" || ! -f "$root/bench/go.mod" ]]; then
	echo "bench/run.sh: run from the repository root (simulator sources not found in $root)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
go -C "$root/bench" build -trimpath -buildvcs=false -o "$out/mpppb-bench" .
exec "$out/mpppb-bench" "$@"
