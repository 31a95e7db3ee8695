// Command mpppb-trace captures, inspects, and replays binary trace files.
// Traces decouple workload generation from simulation: capture a synthetic
// suite segment once and replay it, or convert externally collected
// program traces into this format and drive the simulator with them.
//
//	mpppb-trace -capture mcf_like-0 -n 2000000 -o mcf.trc
//	mpppb-trace -stats mcf.trc
//	mpppb-trace -replay mcf.trc -policy lru,mpppb
//	mpppb-trace -ingest mytrace.csv -o mytrace.trc   # external traces
//	mpppb-trace -ingest mytrace.jsonl -o mytrace.trc
//	mpppb-trace -export mcf.trc > mcf.csv
//
// -ingest converts externally collected CSV or JSONL traces (format
// auto-detected, or forced with -format) to the binary format with strict
// parse errors; the resulting file runs anywhere a benchmark name is
// accepted via the trace:<path> workload family. -import is the older
// CSV-only spelling of the same conversion.
//
// Replays checkpoint with -journal FILE; entries are keyed by a content
// hash of the trace, so -resume refuses to reuse results if the trace
// file changed underneath the journal. Ingests are journaled the same
// way, keyed by the source file's content hash.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"

	"mpppb/internal/experiments"
	"mpppb/internal/runspec"
	"mpppb/internal/sim"
	"mpppb/internal/stats"
	"mpppb/internal/trace"
	"mpppb/internal/workload"
)

func main() {
	// flags are the content digests the journal fingerprint covers: the
	// replayed trace, or the ingested source.
	var flags struct {
		Trace  string `json:"trace,omitempty"`
		Source string `json:"source,omitempty"`
	}
	s := runspec.New(flag.CommandLine, "mpppb-trace", sim.DefaultWarmup, sim.DefaultMeasure, 0, &flags)
	var (
		capture  = flag.String("capture", "", "segment to capture, e.g. mcf_like-0")
		n        = flag.Int("n", 1_000_000, "records to capture")
		out      = flag.String("o", "", "output trace file (with -capture)")
		statsF   = flag.String("stats", "", "trace file to summarize")
		replay   = flag.String("replay", "", "trace file to simulate")
		ingest   = flag.String("ingest", "", "external text trace (CSV/JSONL) to convert to binary (with -o)")
		format   = flag.String("format", "auto", "-ingest input format: auto, csv or jsonl")
		imp      = flag.String("import", "", "CSV trace to convert to binary (with -o); older spelling of -ingest -format csv")
		export   = flag.String("export", "", "binary trace to dump as CSV to stdout")
		policies = flag.String("policy", "lru,mpppb", "policies for -replay")
	)
	flag.Parse()

	src, srcFormat := *ingest, *format
	if src == "" {
		src, srcFormat = *imp, "csv"
	}
	if src == "" && *export == "" && *capture == "" && *statsF == "" && *replay == "" {
		flag.Usage()
		os.Exit(2)
	}
	var data []byte
	var recs []trace.Record
	var pols []string
	var err error
	switch {
	case src != "":
		if data, err = os.ReadFile(src); err != nil {
			s.Exit(err)
		}
		flags.Source = digest(data)
	case *replay != "":
		if recs, flags.Trace, err = loadHashed(*replay); err != nil {
			s.Exit(err)
		}
		pols = s.Policies("policy", *policies)
	}
	run := s.Start()

	switch {
	case src != "":
		if *out == "" {
			s.Exit(errors.New("need -o with -ingest"))
		}
		f, err := trace.ParseFormat(srcFormat)
		if err != nil {
			s.Exit(err)
		}
		// The journal key is the source file's content hash: re-running
		// the same ingest is a hit, a changed source is a different key,
		// and a hit only skips work if the output file still carries the
		// recorded bytes.
		key := "ingest/" + flags.Source
		type ingestRes struct {
			Records int    `json:"records"`
			OutHash string `json:"out_hash"`
		}
		var prev ingestRes
		if hit, err := run.Journal.Load(key, &prev); err != nil {
			s.Exit(err)
		} else if hit {
			if cur, err := os.ReadFile(*out); err == nil && digest(cur) == prev.OutHash {
				fmt.Printf("ingested %d records from %s to %s (journal hit)\n", prev.Records, src, *out)
				s.Exit(nil)
			}
		}
		recs, err := trace.Ingest(src, data, f)
		if err != nil {
			s.Exit(err)
		}
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf)
		if err != nil {
			s.Exit(err)
		}
		for _, r := range recs {
			if err := w.Add(r); err != nil {
				s.Exit(err)
			}
		}
		if err := w.Flush(); err != nil {
			s.Exit(err)
		}
		if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
			s.Exit(err)
		}
		if err := run.Journal.Record(key, ingestRes{Records: len(recs), OutHash: digest(buf.Bytes())}); err != nil {
			s.Exit(err)
		}
		fmt.Printf("ingested %d records from %s to %s\n", len(recs), src, *out)

	case *export != "":
		recs, _, err := loadHashed(*export)
		if err == nil {
			err = trace.WriteCSV(os.Stdout, recs)
		}
		if err != nil {
			s.Exit(err)
		}

	case *capture != "":
		if *out == "" {
			s.Exit(errors.New("need -o with -capture"))
		}
		s.Positive("n")
		id, err := workload.ParseSegmentID(*capture)
		if err != nil {
			s.Exit(fmt.Errorf("-capture: %v", err))
		}
		gen := workload.NewGenerator(id, workload.CoreBase(0))
		f, err := os.Create(*out)
		if err != nil {
			s.Exit(err)
		}
		w, err := trace.NewWriter(f)
		if err != nil {
			s.Exit(err)
		}
		var rec trace.Record
		var instr uint64
		for i := 0; i < *n; i++ {
			gen.Next(&rec)
			if err := w.Add(rec); err != nil {
				s.Exit(err)
			}
			instr += rec.Instructions()
		}
		if err := w.Flush(); err != nil {
			s.Exit(err)
		}
		fi, _ := f.Stat()
		if err := f.Close(); err != nil {
			s.Exit(err)
		}
		fmt.Printf("captured %d records (%d instructions) of %s to %s (%d bytes, %.2f B/record)\n",
			w.Count(), instr, id, *out, fi.Size(), float64(fi.Size())/float64(w.Count()))

	case *statsF != "":
		recs, _, err := loadHashed(*statsF)
		if err != nil {
			s.Exit(err)
		}
		var instr, writes uint64
		blockIDs := make([]uint64, len(recs))
		blocks := map[uint64]struct{}{}
		pcs := map[uint64]struct{}{}
		for i, r := range recs {
			instr += r.Instructions()
			if r.IsWrite {
				writes++
			}
			blockIDs[i] = r.Block()
			blocks[r.Block()] = struct{}{}
			pcs[r.PC] = struct{}{}
		}
		fmt.Printf("records:        %d\n", len(recs))
		fmt.Printf("instructions:   %d\n", instr)
		fmt.Printf("stores:         %d (%.1f%%)\n", writes, 100*float64(writes)/float64(len(recs)))
		fmt.Printf("distinct PCs:   %d\n", len(pcs))
		fmt.Printf("footprint:      %d blocks (%.2f MB)\n", len(blocks),
			float64(len(blocks))*trace.BlockSize/(1<<20))
		// LRU stack-distance profile: the locality fingerprint the rdmodel
		// workload family parameterizes on.
		bounds := []uint64{16, 256, 4096, 65536}
		counts, cold := stats.ReuseHistogram(blockIDs, bounds, 0)
		fmt.Printf("reuse distance: ")
		lo := uint64(0)
		for i, b := range bounds {
			fmt.Printf("(%d,%d]=%.1f%% ", lo, b, 100*float64(counts[i])/float64(len(recs)))
			lo = b
		}
		fmt.Printf(">%d=%.1f%% cold=%.1f%%\n", lo,
			100*float64(counts[len(bounds)])/float64(len(recs)),
			100*float64(cold)/float64(len(recs)))

	case *replay != "":
		// Policies replay independently: each worker gets its own replay
		// cursor over one shared, read-only column store.
		cols := trace.ColumnsOf(recs)
		cfg := s.Config(sim.SingleThreadConfig())
		type replayRes struct {
			Res   sim.Result `json:"res"`
			Wraps uint64     `json:"wraps"`
		}
		keys := make([]string, len(pols))
		for i, pname := range pols {
			keys[i] = "replay/" + flags.Trace + "/" + pname
		}
		results, polErrs, err := experiments.RunCells(run, keys, func(_ context.Context, i int) (replayRes, error) {
			pf, err := sim.Policy(pols[i])
			if err != nil {
				return replayRes{}, err
			}
			gen := trace.NewColumnarReplay(*replay, cols)
			res := sim.RunSingle(cfg, gen, pf)
			return replayRes{Res: res, Wraps: gen.Wraps}, nil
		})
		if err != nil {
			s.Exit(err)
		}
		for i, pname := range pols {
			if polErrs[i] != nil {
				fmt.Printf("%-14s FAILED: %v\n", pname, polErrs[i])
				continue
			}
			fmt.Printf("%-14s IPC %.3f  MPKI %.2f  (replay wrapped %d times)\n",
				pname, results[i].Res.IPC, results[i].Res.MPKI, results[i].Wraps)
		}
	}
	s.Exit(nil)
}

// loadHashed reads a whole binary trace and returns its records along with
// the digest of the file's exact bytes (used to key replay journal
// entries, so stale results can't be replayed against a modified trace).
func loadHashed(path string) ([]trace.Record, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	recs, err := trace.ReadAll(bytes.NewReader(data))
	return recs, digest(data), err
}

// digest is a short content hash of data.
func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}
