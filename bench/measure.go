package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"syscall"
)

// series is one metric's samples: one value per round, pass or ladder
// repeat, depending on the metric.
type series struct {
	name, unit string
	xs         []float64
	// A pooled metric is one value taken over count samples, such as a
	// latency percentile over every batch of the run; xs then holds the
	// same percentile of each pass, for its spread.
	pooled *float64
	count  int
}

func (s *series) add(x float64) { s.xs = append(s.xs, x) }

// value is the number the metric reports: the pooled value or the median.
func (s *series) value() float64 {
	if s.pooled != nil {
		return *s.pooled
	}
	return median(s.xs)
}

func (s *series) n() int {
	if s.pooled != nil {
		return s.count
	}
	return len(s.xs)
}

// quartiles returns the first quartile, median and third quartile of xs by
// the "exclusive" method of Python's statistics.quantiles(xs, n=4): the
// rule by which run-to-run spread is judged, here and in -compare.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := len(d) + 1
		j := min(max(i*m/4, 1), len(d)-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// report is everything one workload run prints: its metric table and the
// contract result line.
type report struct {
	workload  string
	seed      uint64
	rounds    string // how the samples were taken, for the table header
	e2e       []*series
	layers    []*series
	attempted int
	failed    int
	notes     []string
	digests   map[string]string // by operation
	// aliases maps each benchmark metric name to the series that supplies
	// it, by table name; the per-layer names map to themselves.
	aliases map[string]string
}

// metric returns the series named name, creating it (in table order) on
// first use.
func (r *report) metric(layer bool, name, unit string) *series {
	list := &r.e2e
	if layer {
		list = &r.layers
	}
	for _, s := range *list {
		if s.name == name {
			return s
		}
	}
	s := &series{name: name, unit: unit}
	*list = append(*list, s)
	return s
}

// result is the last line a workload run prints, the one that tools running
// the benchmark and -compare read.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printTable writes the human-readable metric table.
func (r *report) printTable(w io.Writer, traced bool) {
	fmt.Fprintf(w, "== %s  seed %d  %s\n", r.workload, r.seed, r.rounds)
	rows := func(title string, list []*series) {
		if len(list) == 0 {
			return
		}
		fmt.Fprintf(w, "%-48s %-8s %14s %14s %14s %6s\n", title, "unit", "median", "q1", "q3", "n")
		for _, s := range list {
			q1, _, q3 := quartiles(s.xs)
			fmt.Fprintf(w, "%-48s %-8s %14.6g %14.6g %14.6g %6d\n", s.name, s.unit, s.value(), q1, q3, s.n())
		}
	}
	rows("end-to-end", r.e2e)
	if traced {
		rows("per-layer (traced)", r.layers)
	}
	fmt.Fprintf(w, "%-48s %-8s %14.6g   (%d failed of %d attempted)\n", "ops_failed_frac", "ratio",
		float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Fprintf(w, "FAIL: %s\n", n)
	}
}

// result builds the contract line: the end-to-end metrics of an untraced
// run, the per-layer metrics of a traced one, each under its benchmark name.
func (r *report) result(names []string) (result, error) {
	out := result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	all := append(append([]*series(nil), r.e2e...), r.layers...)
	for _, name := range names {
		src := name
		if alias, ok := r.aliases[name]; ok {
			src = alias
		}
		var s *series
		for _, c := range all {
			if c.name == src {
				s = c
			}
		}
		if s == nil || len(s.xs) == 0 {
			return out, fmt.Errorf("%s: metric %s (from %s) was not measured", r.workload, name, src)
		}
		out.Metrics[name] = value{Value: s.value(), Unit: s.unit}
	}
	return out, nil
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// maxRSSMiB is the peak resident set of this process; each workload runs
// in a process of its own, so it is the workload's.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
