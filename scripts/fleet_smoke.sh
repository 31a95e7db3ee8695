#!/bin/sh
# Fleet smoke test against the real binary: run a small fig7 campaign as
# a coordinator plus two workers, kill -9 one worker while /status shows
# it holding a lease, and require (a) the campaign to finish anyway (the
# dead worker's lease expires and its cell is reassigned), (b) the
# mpppb_fleet_* metrics, scraped from the moment the coordinator serves
# them, to account for the leases and the reassignment, and (c) a final
# TSV byte-identical to a plain single-process -j 1 run — from the
# coordinator AND from the surviving worker, which renders the same
# tables from the /cells grid. The Go
# tests pin the board/worker semantics in-process; this script checks
# the end-to-end flow — flag plumbing, the shared obs mux, worker
# process lifecycles, a real SIGKILL — the way an operator would run it.
set -eu

tmp=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$tmp"' EXIT

BIN="$tmp/mpppb-experiments"
go build -o "$BIN" ./cmd/mpppb-experiments

PORT=${FLEET_SMOKE_PORT:-19427}
ADDR="127.0.0.1:$PORT"
# Small grid (24 cells: on each of 4 benchmarks x 3 segments, a MIN
# cell, whose first pass is the LRU run, and an mpppb cell). The script
# waits on events, not on the campaign's
# length, so the grid may finish in a few seconds. The 2s lease TTL keeps
# the reassignment wait tiny.
ARGS="-id fig7 -benches sphinx3_like,gcc_like,mcf_like,libquantum_like \
      -st-policies mpppb -warmup 200000 -measure 600000 -q"

echo "== reference run (single process, -j 1)"
$BIN $ARGS -j 1 > "$tmp/ref.tsv"

echo "== coordinator (lease TTL 2s) + 2 workers, one doomed"
$BIN $ARGS -coordinator -listen "$ADDR" -lease-ttl 2s \
    -journal "$tmp/fleet.journal" > "$tmp/fleet.tsv" 2> "$tmp/coord.err" &
coord=$!

# Wait for the work-lease API to come up before pointing workers at it.
tries=0
until curl -fsS "http://$ADDR/metrics" > "$tmp/metrics.txt" 2>/dev/null; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "coordinator never served /metrics" >&2
        exit 1
    fi
    sleep 0.1
done

# Scrape /metrics from now until the coordinator exits; the last snapshot
# taken while the run was still live is the one we assert on (the server
# dies with the process).
while kill -0 "$coord" 2>/dev/null; do
    curl -fsS "http://$ADDR/metrics" > "$tmp/metrics.next" 2>/dev/null &&
        mv "$tmp/metrics.next" "$tmp/metrics.txt" || true
    sleep 0.2
done &
scraper=$!

$BIN $ARGS -worker "$ADDR" -j 2 > "$tmp/worker1.tsv" 2> "$tmp/worker1.err" &
w1=$!
$BIN $ARGS -worker "$ADDR" -j 2 > "$tmp/worker2.tsv" 2> "$tmp/worker2.err" &
w2=$!

# holds_lease ID: does the cell_leases field of /status name worker ID?
holds_lease() {
    curl -fsS "http://$ADDR/status" 2>/dev/null | awk -v id="\"$1\"" '
        /"cell_leases": \{/ { leases = 1; next }
        leases && /^ *\}/ { leases = 0 }
        leases && index($0, id) { found = 1 }
        END { exit !found }'
}

# Kill -9 the doomed worker as soon as it holds a lease: no drain, no
# goodbye — its lease must simply expire and its cell land on the
# survivor.
id1=""
tries=0
until [ -n "$id1" ] && holds_lease "$id1"; do
    id1=$(sed -n 's/.*fleet worker \([^ ]*\) leasing from.*/\1/p' "$tmp/worker1.err")
    tries=$((tries + 1))
    if [ "$tries" -gt 1000 ] || ! kill -0 "$coord" 2>/dev/null; then
        echo "worker 1 was never seen holding a lease" >&2
        exit 1
    fi
    sleep 0.02
done
kill -9 "$w1"
echo "== killed worker 1 ($id1) while it held a lease"
wait "$coord"
wait "$scraper"

echo "== checking the fleet metrics and lease accounting"
grep -q "fleet worker" "$tmp/worker2.err"
awk '$1 == "mpppb_fleet_leases_granted_total" && $2 > 0 { ok = 1 }
     END { exit !ok }' "$tmp/metrics.txt"
awk '$1 == "mpppb_fleet_completions_total" && $2 > 0 { ok = 1 }
     END { exit !ok }' "$tmp/metrics.txt"
# The killed worker's lease expired and its cell went to the survivor.
awk '$1 == "mpppb_fleet_cells_reassigned_total" && $2 > 0 { ok = 1 }
     END { exit !ok }' "$tmp/metrics.txt"
test -s "$tmp/fleet.journal"

echo "== comparing TSVs (coordinator, then the surviving worker)"
cmp "$tmp/ref.tsv" "$tmp/fleet.tsv"
wait "$w2" || true
cmp "$tmp/ref.tsv" "$tmp/worker2.tsv"

echo "PASS: fleet TSV byte-identical to -j1 with a worker killed -9 mid-run"
