# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test vet race bench bench-hotpath bench-record bench-regress experiments results resume-smoke watch-smoke serve-smoke check-smoke fleet-smoke ingest-smoke adaptive-smoke cover fuzz clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l $$(git ls-files '*.go'))"; \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

test: vet
	$(GO) test -shuffle=on ./...
	$(GO) test -tags verify ./internal/cache ./internal/verify

# Race-detector pass over the concurrent packages (CI's race job runs
# this target): the worker pool, the simulation drivers whose cores'
# captures run in goroutines of their own, the cache levels they split
# between a capture and the replay, the experiment drivers that fan
# across the pool and share cells through the journal, the observability
# layer their workers all update, the advice server's concurrent client
# soak, the fleet coordinator/worker lease machinery, the core package
# whose adaptive-duel gauges those concurrent workers now publish, and
# the Zipf tables that concurrent cells' generators share.
race:
	$(GO) test -race ./internal/parallel ./internal/sim ./internal/cache ./internal/experiments ./internal/obs ./internal/serve ./internal/fleet ./internal/core ./internal/xrand

# The root package's Go benchmarks, one iteration each: the ablation
# sweeps no experiment id prints (θ, sampler size, bypass, default
# policy) and the end-to-end fig6 segment. The experiments themselves
# are pinned by the goldens in cmd/mpppb-experiments/testdata.
bench:
	$(GO) test -bench=. -benchmem -benchtime 1x .

# Hot-path microbenchmarks: predictor confidence, the per-feature-kind and
# per-feature-set predictor gather, one LLC access, the set probe and
# victim scan, one demand's capture through L1, L2 and the prefetcher and
# its replay into the LLC, one prefetcher miss, the core timing
# model's share of one trace record, one Zipf draw per table size,
# generator batching per Zipf segment, the advice-serving round trip, and
# the end-to-end fig6 segment. See docs/PERFORMANCE.md.
bench-hotpath:
	$(GO) test -run NONE -bench 'BenchmarkPredictorConfidence|BenchmarkPredict$$|BenchmarkLLCAccess' -benchmem -benchtime 2s ./internal/core
	$(GO) test -run NONE -bench 'BenchmarkCacheLookup|BenchmarkVictimScan|BenchmarkHierarchyDemand' -benchmem -benchtime 2s ./internal/cache
	$(GO) test -run NONE -bench BenchmarkStreamOnL1Miss -benchmem -benchtime 2s ./internal/prefetch
	$(GO) test -run NONE -bench BenchmarkCoreRecord -benchmem -benchtime 2s ./internal/cpu
	$(GO) test -run NONE -bench BenchmarkZipfDraw -benchmem -benchtime 2s ./internal/xrand
	$(GO) test -run NONE -bench BenchmarkGeneratorBatch -benchmem -benchtime 2s ./internal/workload
	$(GO) test -run NONE -bench 'BenchmarkServeAdvice|BenchmarkApplyInline' -benchmem -benchtime 2s ./internal/serve
	$(GO) test -run NONE -bench BenchmarkEndToEndFig6Segment -benchmem -benchtime 1x .

# Record a throughput trajectory point as BENCH_<n>.json.
bench-record:
	scripts/bench.sh

# Regression gate: throwaway trajectory point vs the newest checked-in
# BENCH_*.json (see scripts/bench_regress.sh; CI runs it blocking at 20%).
bench-regress:
	scripts/bench_regress.sh

# Full experiment campaign: TSV per figure/table into results/.
# Raise -warmup/-measure/-mixes for tighter numbers (slower).
results:
	$(GO) run ./cmd/mpppb-experiments -id all -out results

# End-to-end crash recovery: interrupt a journaled campaign with SIGINT,
# resume it, and require byte-identical TSVs; then resume fig4's journal
# into fig9, which must read its shared multi-core cells from it, and
# fig6's journal into fig3 and then figadapt, which must read their
# shared single-thread cells from it; last, resume a fig7 journal after
# its trace:<path> file changed, which must recompute that file's cells
# (see scripts/resume_smoke.sh).
resume-smoke:
	scripts/resume_smoke.sh

# End-to-end live observability: run a campaign with -listen, poll
# /metrics and /status mid-run, and require well-formed endpoint output
# plus a byte-identical TSV (see scripts/watch_smoke.sh).
watch-smoke:
	scripts/watch_smoke.sh

# End-to-end advice serving: a -check server, clients streaming a
# benchmark segment (one verifying byte-identical advice against an
# inline replay), /metrics accounting, and a clean SIGINT drain (see
# scripts/serve_smoke.sh).
serve-smoke:
	scripts/serve_smoke.sh

# Differential-oracle smoke: small fig6, fig4 and fig8 campaigns, every
# set-dueling policy and the measurement-only ROC run included, with the
# lockstep verification layer armed (-check); divergence aborts with the
# access index and a set-level dump (see scripts/check_smoke.sh).
check-smoke:
	scripts/check_smoke.sh

# End-to-end fleet campaign: coordinator + two workers, one killed -9
# mid-run, byte-identical TSVs from the coordinator and the survivor
# (see scripts/fleet_smoke.sh).
fleet-smoke:
	scripts/fleet_smoke.sh

# End-to-end trace ingestion: capture → CSV/JSONL → ingest must reproduce
# the binary trace byte-for-byte, journal hits on re-ingest, and the
# ingested trace replays identically under -check and as a trace:<path>
# benchmark (see scripts/ingest_smoke.sh).
ingest-smoke:
	scripts/ingest_smoke.sh

# End-to-end adaptive-threshold duel: a figadapt campaign byte-identical
# plain vs -check (reference duel armed) vs -listen (mpppb_adaptive_*
# gauges scraped live), plus the mpppb-tune → -duel spec round trip
# (see scripts/adaptive_smoke.sh).
adaptive-smoke:
	scripts/adaptive_smoke.sh

# Coverage gate: per-package report plus a total-% floor
# (see scripts/cover.sh; override with COVER_BASELINE=<pct>).
cover:
	scripts/cover.sh

# Smoke-budget run of every native fuzz target (the corpora double as
# regression tests under plain `go test`). One -fuzz per invocation, as
# `go test` requires.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run NONE -fuzz FuzzPredictorKernel -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run NONE -fuzz FuzzCacheOps -fuzztime $(FUZZTIME) ./internal/verify
	$(GO) test -run NONE -fuzz FuzzPrivateLevelMatchesCache -fuzztime $(FUZZTIME) ./internal/cache
	$(GO) test -run NONE -fuzz FuzzJournalLoad -fuzztime $(FUZZTIME) ./internal/journal
	$(GO) test -run NONE -fuzz FuzzTraceRoundTrip -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run NONE -fuzz FuzzIngestTrace -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run NONE -fuzz FuzzServeProtocol -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run NONE -fuzz FuzzCoreMatchesReference -fuzztime $(FUZZTIME) ./internal/cpu
	$(GO) test -run NONE -fuzz FuzzZipfDraw -fuzztime $(FUZZTIME) ./internal/xrand
	$(GO) test -run NONE -fuzz FuzzStreamMatchesReference -fuzztime $(FUZZTIME) ./internal/prefetch

clean:
	rm -rf results
	$(GO) clean ./...
