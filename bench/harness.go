package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"
)

// options are one run's settings.
type options struct {
	seed    uint64
	seconds float64 // measuring time; set-up is extra
	traced  bool
	// scale divides every input size; 1 is the full scale the checked-in
	// digests pin, and tests run smaller.
	scale uint64
}

// A run sets up at least minSetups times, and more while the set-ups so
// far took under setupBudget seconds (a cheap set-up is short enough for
// page faults and scheduling to swing it). setup_s is the median; the last
// set-up's inputs are the ones measured.
const (
	minSetups   = 3
	maxSetups   = 50
	setupBudget = 1.0
)

// workloadDef is one benchmark input set; README.md gives the reasons
// for each.
type workloadDef struct {
	name  string
	setup func(o options) (runner, error)
}

// runner measures a workload after its set-up.
type runner interface {
	// round runs every operation of the workload once, recording spans
	// under tr when it is non-nil, and returns the seconds that traced and
	// untraced rounds compare by. Reverse rounds run the policies in the
	// opposite order.
	round(tr *tracer, reverse bool) float64
	// finish adds the run's metrics and failures to rep.
	finish(rep *report, tr *tracer)
	close()
}

var workloads = []workloadDef{
	{"st_timing", setupSingle},
	{"replay_fast", setupReplay},
	{"mc_mix", setupMulti},
	{"serve_2c", setupServe},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// measure sets a workload up, runs timed rounds for o.seconds, and reports.
// A traced run alternates untraced and traced rounds, so trace_overhead
// compares rounds taken under the same host conditions, and then runs the
// layer ladder.
func measure(w workloadDef, o options) (*report, *tracer, error) {
	rep := &report{workload: w.name, seed: o.seed}
	setup := rep.metric(false, "setup_s", "s")
	var run runner
	for spent := 0.0; len(setup.xs) < minSetups || (spent < setupBudget && len(setup.xs) < maxSetups); {
		if run != nil {
			run.close()
			run = nil
		}
		// Each set-up and the rounds after the last start from a collected
		// heap, so no set-up pays for its predecessor's garbage and the
		// peak resident set holds one set of inputs.
		runtime.GC()
		f := hostFactor()
		t := time.Now()
		r, err := w.setup(o)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		sec := time.Since(t).Seconds()
		spent += sec
		setup.add(sec / f)
		run = r
	}
	defer run.close()
	runtime.GC()

	var tr *tracer
	minRounds := 3
	if o.traced {
		tr = newTracer()
		minRounds = 4
	}
	var walls [2][]float64 // untraced and traced round times
	start := time.Now()
	for i := 0; ; i++ {
		elapsed := time.Since(start).Seconds()
		if i >= minRounds && elapsed+elapsed/float64(i) > o.seconds {
			break
		}
		traced, reverse := false, i%2 == 1
		if o.traced {
			traced, reverse = i%2 == 1, (i/2)%2 == 1
		}
		var rt *tracer
		k := 0
		if traced {
			rt, k = tr, 1
		}
		walls[k] = append(walls[k], run.round(rt, reverse))
	}
	rep.rounds = fmt.Sprintf("%d rounds", len(walls[0]))
	run.finish(rep, tr)
	if o.traced {
		rep.rounds = fmt.Sprintf("%d untraced + %d traced rounds", len(walls[0]), len(walls[1]))
		overhead := rep.metric(true, "trace_overhead", "ratio")
		for i := range walls[1] {
			overhead.add(walls[1][i] / walls[0][i])
		}
		ladder(rep, o)
	}
	rep.metric(false, "max_rss_mib", "MiB").add(maxRSSMiB())
	return rep, tr, nil
}

// digest is the short hash under which an operation's deterministic
// output is compared across rounds and against the checked-in digests.
func digest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:8])
}

//go:embed testdata/digests.json
var goldenJSON []byte

// checker compares each operation's digest with the first one the run
// saw for it and, at seed 0 and full scale, with the checked-in digest.
type checker struct {
	golden map[string]string // nil when the run has none
	first  map[string]string
}

func newChecker(name string, o options) (*checker, error) {
	c := &checker{first: map[string]string{}}
	if o.seed != 0 || o.scale != 1 {
		return c, nil
	}
	var all map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %w", err)
	}
	c.golden = all[name]
	if c.golden == nil {
		c.golden = map[string]string{} // every operation then fails
	}
	return c, nil
}

// check reports why key's digest d is wrong, or "".
func (c *checker) check(key, d string) string {
	ref, seen := c.first[key]
	if !seen {
		c.first[key] = d
		if c.golden == nil {
			return ""
		}
		if want, ok := c.golden[key]; !ok {
			return fmt.Sprintf("%s: no checked-in digest", key)
		} else if want != d {
			return fmt.Sprintf("%s: digest %s, checked-in %s", key, d, want)
		}
		return ""
	}
	if ref != d {
		return fmt.Sprintf("%s: digest %s differs from the first round's %s", key, d, ref)
	}
	return ""
}
