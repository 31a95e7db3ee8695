// Command mpppb-bench is the repository benchmark. It measures the
// simulator's host performance end to end on four workloads, checks that
// every output is correct, and in a traced run splits the time by layer.
// See README.md; run it from the repository root with bash bench/run.sh.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// The metrics of the result line, as BENCHMARK.json declares them.
var (
	endToEnd = []string{"setup_s", "llc_acc_per_s", "mpppb_acc_per_s", "tail_us", "max_rss_mib"}
	perLayer = []string{
		"delivery.ns_per_acc", "policy.ns_per_acc", "policy.ns_per_hit", "policy.ns_per_miss",
		"rest.ns_per_acc", "core.train_per_acc", "core.bypass_ratio", "trace_overhead",
		"ladder.gen.ns_per_record", "ladder.hier.ns_per_record", "ladder.prefetch.ns_per_record",
		"ladder.cpu.ns_per_record", "ladder.mpppb.ns_per_record",
	}
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run returns the exit code: 0 when every operation was correct, 1 when
// one failed or a run could not finish, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mpppb-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "st_timing, replay_fast, mc_mix, serve_2c, or all (each in a process of its own)")
	seed := fs.Uint64("seed", 0, "input seed; 0 gives the canonical streams the checked-in digests pin")
	seconds := fs.Float64("seconds", 25, "measuring time of each workload, set-up excluded")
	traceLevel := fs.Int("trace", 0, "1 interleaves traced rounds and reports per-layer metrics")
	compare := fs.Bool("compare", false, "compare two files of results: -compare parent.jsonl change.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare parent.jsonl change.jsonl")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout, stderr)
	}
	if fs.NArg() != 0 || (*traceLevel != 0 && *traceLevel != 1) || *seconds < 0 {
		fs.Usage()
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, traced: *traceLevel == 1, scale: 1}
	if *name == "all" {
		return runAll(o, stdout, stderr)
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "unknown workload %q\n", *name)
		return 2
	}
	res, err := runOne(w, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runOne measures one workload, prints its table and then its result line.
// A traced run also writes its spans under .bench_build.
func runOne(w workloadDef, o options, stdout io.Writer) (result, error) {
	rep, tr, err := measure(w, o)
	if err != nil {
		return result{}, err
	}
	rep.printTable(stdout, o.traced)
	names := endToEnd
	if o.traced {
		names = perLayer
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.json", w.name, o.seed))
		if err := tr.write(path); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
	}
	res, err := rep.result(names)
	if err != nil {
		return res, err
	}
	return res, writeJSONLine(stdout, res)
}

// runAll runs every workload in a child process, so that each one's
// max_rss_mib is its own, and prints each result line as
// {"workload": name, "result": line}, the form -compare reads.
func runAll(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	trace := "0"
	if o.traced {
		trace = "1"
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatUint(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64), "--trace", trace)
		cmd.Stderr = stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		var last string
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if last != "" {
				fmt.Fprintln(stdout, last)
			}
			last = sc.Text()
		}
		err = cmd.Wait()
		var res result
		if json.Unmarshal([]byte(last), &res) == nil && res.Attempted > 0 {
			writeJSONLine(stdout, struct {
				Workload string          `json:"workload"`
				Result   json.RawMessage `json:"result"`
			}{w.name, json.RawMessage(last)})
		} else if last != "" {
			fmt.Fprintln(stdout, last)
		}
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}
