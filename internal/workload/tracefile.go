package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"sync"

	"mpppb/internal/trace"
)

// External-trace benchmark family: "trace:<path>" names a binary trace
// file (produced by mpppb-trace -capture or -ingest) as a benchmark, so
// ingested real-program traces run through every driver — grid, journal,
// -check, fleet, serve clients — exactly like a synthetic benchmark. The
// three segments are phase slices of the file: segment 1 replays the
// first half, segment 2 the second half, and segment 0 the whole trace,
// mirroring the core suite's phase structure without inventing records.

// tracePrefix marks external-trace benchmark names.
const tracePrefix = "trace:"

// traceCache memoizes loaded trace files, so a grid run that schedules
// all segments of one trace decodes the file once.
var traceCache sync.Map // path -> traceEntry

type traceEntry struct {
	recs   []trace.Record
	digest string // of the file's bytes
	err    error
}

func loadTrace(path string) (traceEntry, error) {
	if e, ok := traceCache.Load(path); ok {
		ent := e.(traceEntry)
		return ent, ent.err
	}
	var ent traceEntry
	data, err := os.ReadFile(path)
	if err != nil {
		ent.err = err
	} else {
		sum := sha256.Sum256(data)
		ent.digest = hex.EncodeToString(sum[:8])
		ent.recs, ent.err = trace.ReadAll(bytes.NewReader(data))
		if ent.err == nil && len(ent.recs) == 0 {
			ent.err = fmt.Errorf("workload: trace %s is empty", path)
		}
	}
	e, _ := traceCache.LoadOrStore(path, ent)
	ent = e.(traceEntry)
	return ent, ent.err
}

// TraceDigest returns a short hash of the bytes of the file that a
// "trace:<path>" benchmark replays, as this process read them, and "" for
// any other benchmark or an unreadable file. A cell keyed by the path
// alone would outlive a change to the file.
func TraceDigest(bench string) string {
	if !strings.HasPrefix(bench, tracePrefix) {
		return ""
	}
	ent, _ := loadTrace(bench[len(tracePrefix):])
	return ent.digest
}

func init() {
	registerResolver(func(name string) (FamilyBenchmark, bool) {
		if !strings.HasPrefix(name, tracePrefix) {
			return FamilyBenchmark{}, false
		}
		path := name[len(tracePrefix):]
		if _, err := loadTrace(path); err != nil {
			// An unreadable path is not a benchmark; drivers report it as
			// the usual unknown-benchmark error.
			return FamilyBenchmark{}, false
		}
		return FamilyBenchmark{
			Name:  name,
			Class: "external-trace",
			Make: func(seg int, base uint64) trace.Generator {
				ent, err := loadTrace(path)
				if err != nil {
					panic(fmt.Sprintf("workload: loading %s: %v", path, err))
				}
				return newTraceSegment(segName(name, seg), ent.recs, seg, base)
			},
		}, true
	})
}

// traceAddrBits is how much of a trace record's address survives
// rebasing; the rest is replaced by the driver-assigned core base, so
// multi-programmed traces stay in disjoint regions like synthetic
// benchmarks do.
const traceAddrBits = 40

// traceSegment replays a slice of a trace file, rebased into the driver's
// address region. It wraps like any replay generator.
type traceSegment struct {
	inner *trace.ReplayGenerator
	base  uint64
}

// newTraceSegment slices the phase for seg (0 = full, 1 = first half,
// 2 = second half) and wraps it in a rebasing replayer.
func newTraceSegment(name string, recs []trace.Record, seg int, base uint64) *traceSegment {
	half := len(recs) / 2
	switch {
	case seg == 1 && half > 0:
		recs = recs[:half]
	case seg == 2 && half > 0:
		recs = recs[half:]
	}
	return &traceSegment{inner: trace.NewReplayGenerator(name, recs), base: base}
}

func (g *traceSegment) rebase(r *trace.Record) {
	r.Addr = g.base | (r.Addr & (1<<traceAddrBits - 1))
}

// Name implements trace.Generator.
func (g *traceSegment) Name() string { return g.inner.Name() }

// Next implements trace.Generator.
func (g *traceSegment) Next(rec *trace.Record) {
	g.inner.Next(rec)
	g.rebase(rec)
}

// NextBatch implements trace.BatchGenerator; rebasing touches only the
// caller's buffer, never the shared decoded records.
func (g *traceSegment) NextBatch(recs []trace.Record) int {
	n := g.inner.NextBatch(recs)
	for i := 0; i < n; i++ {
		g.rebase(&recs[i])
	}
	return n
}

// Reset implements trace.Generator.
func (g *traceSegment) Reset() { g.inner.Reset() }

var _ trace.BatchGenerator = (*traceSegment)(nil)
