#!/bin/sh
# Crash-recovery smoke test against the real binary: start a small fig6
# campaign with a journal, interrupt it with SIGINT mid-run, resume it,
# and require the resumed TSV to be byte-identical to an uninterrupted
# reference run. A second pass resumes a fig4 journal into fig9: the
# fingerprint leaves -id out and both figures key their multi-core cells
# by machine, policy and workload, so fig9 must read its baselines and
# its original point from fig4's journal and still print the bytes of a
# run without one. A third pass does the same for single-thread cells:
# fig3 must read its MIN references from fig6's journal, and figadapt
# its static seed-0 cells from fig3's paper set. The Go test
# (cmd/mpppb-experiments/resume_test.go)
# pins the library-level semantics deterministically; this script checks
# the end-to-end flow — signal handling, exit codes, the flag plumbing —
# the way a user would hit it.
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

BIN="$tmp/mpppb-experiments"
go build -o "$BIN" ./cmd/mpppb-experiments

# Small but not instant: two benchmarks, three segments each.
ARGS="-id fig6 -benches sphinx3_like,gcc_like -st-policies sdbp,mpppb \
      -warmup 150000 -measure 500000 -q"

echo "== reference run (uninterrupted, -j 1)"
$BIN $ARGS -j 1 -out "$tmp/ref"

echo "== interrupted run (SIGINT after 1s)"
$BIN $ARGS -j 1 -out "$tmp/int" -journal "$tmp/run.journal" &
pid=$!
sleep 1
kill -INT "$pid" 2>/dev/null || true
status=0
wait "$pid" || status=$?
# 130 = interrupted as intended; 0 = the run beat the signal, which still
# exercises the resume path below (everything replays from the journal).
if [ "$status" -ne 130 ] && [ "$status" -ne 0 ]; then
    echo "interrupted run exited $status, want 130 (or 0 if it finished)" >&2
    exit 1
fi
cells=$(grep -c '"status":"ok"' "$tmp/run.journal" || true)
echo "   journal holds $cells completed cell(s), exit status $status"

echo "== resumed run (-j 4)"
$BIN $ARGS -j 4 -out "$tmp/res" -journal "$tmp/run.journal" -resume

echo "== comparing TSVs"
cmp "$tmp/ref/fig6.tsv" "$tmp/res/fig6.tsv"
echo "PASS: resumed output is byte-identical to the uninterrupted run"

# fig9's two mixes are two of fig4's four (workload.Mixes is prefix-
# stable), so fig4's journal holds 12 of fig9's cells: the 8 segments
# alone, and LRU and mpppb-srrip on each mix.
MC="-mixes 4 -ablate-mixes 2 -warmup 50000 -measure 200000 -j 2"

echo "== fig9 reference run (no journal)"
$BIN -id fig9 $MC -q -out "$tmp/mc-ref"

echo "== fig4 run (-journal)"
$BIN -id fig4 $MC -q -out "$tmp/mc-fig4" -journal "$tmp/mc.journal"

echo "== fig9 resumed from fig4's journal"
$BIN -id fig9 $MC -out "$tmp/mc-res" -journal "$tmp/mc.journal" -resume 2>"$tmp/mc-res.log"
served=$(grep -c '(from journal)' "$tmp/mc-res.log" || true)
if [ "$served" -ne 12 ]; then
    echo "fig9 read $served cell(s) from fig4's journal, want 12:" >&2
    cat "$tmp/mc-res.log" >&2
    exit 1
fi
cmp "$tmp/mc-ref/fig9.tsv" "$tmp/mc-res/fig9.tsv"
echo "PASS: fig9 read 12 cells from fig4's journal and printed the bytes of a run without one"

# Single-thread cells are keyed by kind, machine, policy, segment and
# seed, so fig3 reads the MIN cells of its training segments mcf_like-0
# and sphinx3_like-0 from fig6's journal, and figadapt reads its static
# (mpppb) seed-0 cells on those segments from fig3's paper set. Only
# those keys are counted: fig3's own revisits are journal hits too. Every
# step takes the same flags, which the fingerprint hashes.
S="-benches mcf_like,sphinx3_like -st-policies mpppb -random 2 -climb 2 -adapt-seeds 1 -warmup 50000 -measure 200000 -j 2"

echo "== fig3 and figadapt reference runs (no journal)"
$BIN -id fig3 $S -q -out "$tmp/st-ref"
$BIN -id figadapt $S -q -out "$tmp/st-ref"

echo "== fig6 run (-journal)"
$BIN -id fig6 $S -q -out "$tmp/st-fig6" -journal "$tmp/st.journal"

# served KEYPATTERN LOG WANT: the log must hold WANT "(from journal)"
# lines whose key matches KEYPATTERN.
served() {
    n=$(grep -cE "^$1 \(from journal\)" "$2" || true)
    if [ "$n" -ne "$3" ]; then
        echo "$2: $n journal hit(s) on $1, want $3:" >&2
        cat "$2" >&2
        exit 1
    fi
}

echo "== fig3 resumed from fig6's journal"
$BIN -id fig3 $S -out "$tmp/st-res" -journal "$tmp/st.journal" -resume 2>"$tmp/st-fig3.log"
served 'min/[0-9a-f]+/min/(mcf_like|sphinx3_like)-0' "$tmp/st-fig3.log" 2
cmp "$tmp/st-ref/fig3.tsv" "$tmp/st-res/fig3.tsv"

echo "== figadapt resumed from the same journal"
$BIN -id figadapt $S -out "$tmp/st-res" -journal "$tmp/st.journal" -resume 2>"$tmp/st-adapt.log"
served 'fast/[0-9a-f]+/mpppb/(mcf_like|sphinx3_like)-0' "$tmp/st-adapt.log" 2
cmp "$tmp/st-ref/figadapt.tsv" "$tmp/st-res/figadapt.tsv"
echo "PASS: fig3 read fig6's MIN cells and figadapt fig3's paper set from the journal, and both printed the bytes of runs without one"
