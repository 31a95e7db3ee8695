#!/bin/sh
# Differential-oracle smoke: small fig6, fig4 and fig8 campaigns with
# -check, which arms the lockstep verification layer (internal/verify) on
# every cache — each access is replayed through a naive reference model,
# and any divergence in hit/miss, victim choice, or frame state aborts
# with the access index and a set-level dump. Four passes, one for each
# way the simulated machine runs but the fast-MPKI search (the adaptive
# smoke's -check run covers that one):
#   kernels     the hot rewrites: the always-run lru baseline and mpppb
#               stream the SoA tag lane, mpppb runs the confidence gather
#               the CPU picks (AVX-512 or scalar), and mdpp exercises the
#               precomputed tree-PLRU touch tables;
#   st-duelers  the single-thread set-dueling policies drrip, dip,
#               dyn-mdpp and hybrid;
#   mc-duelers  hybrid-srrip and mpppb-adaptive-srrip on one 4-core mix;
#   roc         the measurement-only ROC run (sdbp, perceptron and mpppb
#               predict and train while LRU manages the LLC).
#
# Each checked run's TSV must also be byte-identical to a plain run: the
# oracle is observe-only and must not perturb results.
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

BIN="$tmp/mpppb-experiments"
go build -o "$BIN" ./cmd/mpppb-experiments

# pass NAME ID ARGS...: run experiment ID plain and under -check, then
# require byte-identical TSVs.
pass() {
    name=$1
    id=$2
    shift 2
    echo "== $name: plain run"
    "$BIN" -id "$id" -q -out "$tmp/$name-plain" "$@"
    echo "== $name: lockstep -check run (differential oracle armed)"
    "$BIN" -id "$id" -q -check -out "$tmp/$name-checked" "$@"
    cmp "$tmp/$name-plain/$id.tsv" "$tmp/$name-checked/$id.tsv"
    echo "PASS: oracle-checked $name matches the plain run byte-for-byte"
}

pass kernels fig6 -benches mcf_like,libquantum_like -st-policies mpppb,mdpp \
    -warmup 100000 -measure 400000
pass st-duelers fig6 -benches mcf_like -st-policies drrip,dip,dyn-mdpp,hybrid \
    -warmup 100000 -measure 400000
pass mc-duelers fig4 -mixes 1 -mc-policies hybrid-srrip,mpppb-adaptive-srrip \
    -warmup 50000 -measure 200000
pass roc fig8 -roc-segments 3 -warmup 100000 -measure 400000
