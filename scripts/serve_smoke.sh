#!/bin/sh
# Advice-serving smoke test against the real binary: start mpppb-serve
# with -check and -listen, stream a benchmark segment at it from two
# client processes — one with -verify, which replays the stream through an
# in-process predictor and requires byte-identical advice — then require
# (a) deterministic client summaries (two runs, identical stdout),
# (b) serve metrics visible on /metrics, the promote and bypass counters
# at twice what each client's summary counted, and (c) a clean SIGINT
# drain.
# The Go tests pin the library-level semantics; this script checks the
# end-to-end flow — flag plumbing, the TCP server's lifetime, shutdown
# behavior — the way a user would hit it.
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

BIN="$tmp/mpppb-serve"
go build -o "$BIN" ./cmd/mpppb-serve

PORT=${SERVE_SMOKE_PORT:-19417}
OBSPORT=${SERVE_SMOKE_OBS_PORT:-19418}
ADDR="127.0.0.1:$PORT"
CLIENT_ARGS="-connect $ADDR -bench mcf_like -events 300000 -batch 2048"

echo "== start server (-check, /metrics on :$OBSPORT)"
$BIN -addr "$ADDR" -shards 3 -check -listen "127.0.0.1:$OBSPORT" 2> "$tmp/srv.err" &
pid=$!

# Wait for the observability endpoint (and with it the advice listener).
tries=0
until curl -fsS "http://127.0.0.1:$OBSPORT/status" > /dev/null 2>&1; do
    tries=$((tries + 1))
    if [ "$tries" -gt 50 ]; then
        echo "no /status response after 5s" >&2
        kill "$pid" 2>/dev/null || true
        cat "$tmp/srv.err" >&2
        exit 1
    fi
    sleep 0.1
done

echo "== client run 1 (-verify: served advice must match inline replay)"
$BIN $CLIENT_ARGS -verify -client-id 1 > "$tmp/run1.tsv"

echo "== client run 2 (fresh server-side instance, same stream)"
$BIN $CLIENT_ARGS -client-id 2 > "$tmp/run2.tsv"

if ! cmp -s "$tmp/run1.tsv" "$tmp/run2.tsv"; then
    echo "client summaries differ between runs:" >&2
    diff "$tmp/run1.tsv" "$tmp/run2.tsv" >&2 || true
    kill "$pid" 2>/dev/null || true
    exit 1
fi
echo "   summaries byte-identical"

echo "== /metrics accounting"
curl -fsS "http://127.0.0.1:$OBSPORT/metrics" > "$tmp/metrics.txt"
for metric in mpppb_serve_connections_total mpppb_serve_events_total \
              mpppb_serve_batches_total mpppb_serve_check_events_total; do
    if ! grep -q "^$metric " "$tmp/metrics.txt"; then
        echo "metric $metric missing from /metrics" >&2
        kill "$pid" 2>/dev/null || true
        exit 1
    fi
done
events=$(awk '/^mpppb_serve_events_total /{print $2}' "$tmp/metrics.txt")
if [ "$events" != "600000" ]; then
    echo "mpppb_serve_events_total = $events, want 600000" >&2
    kill "$pid" 2>/dev/null || true
    exit 1
fi
divergences=$(awk '/^mpppb_serve_check_divergences_total /{print $2}' "$tmp/metrics.txt")
if [ "$divergences" != "0" ]; then
    echo "check divergences = $divergences" >&2
    kill "$pid" 2>/dev/null || true
    exit 1
fi
echo "   600000 events served, 0 check divergences"

# Both clients streamed the same events, so each advice counter reads
# twice the count in one client's summary.
for pair in promote:promote-advised bypass:bypass-advised; do
    metric="mpppb_serve_${pair%%:*}_advised_total"
    field=${pair#*:}
    got=$(awk -v m="$metric" '$1 == m {print $2}' "$tmp/metrics.txt")
    per=$(awk -F'\t' -v f="$field" '$1 == f {print $2}' "$tmp/run1.tsv")
    if [ -z "$per" ] || [ "$got" != "$((2 * per))" ]; then
        echo "$metric = $got, want 2 x $field (${per:-missing})" >&2
        kill "$pid" 2>/dev/null || true
        exit 1
    fi
    echo "   $metric = $got = 2 x $field"
done

echo "== SIGINT drain"
kill -INT "$pid"
i=0
while kill -0 "$pid" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "server did not exit within 10s of SIGINT" >&2
        kill -9 "$pid" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
wait "$pid" && rc=0 || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "server exited $rc after SIGINT" >&2
    cat "$tmp/srv.err" >&2
    exit 1
fi
if ! grep -q "drained cleanly" "$tmp/srv.err"; then
    echo "server stderr missing clean-drain line:" >&2
    cat "$tmp/srv.err" >&2
    exit 1
fi

echo "serve smoke: OK"
