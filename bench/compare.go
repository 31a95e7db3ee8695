package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// spec is the part of BENCHMARK.json that -compare uses.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// resultLine is one line of a -compare input file: the result line of one
// run of one workload, as the all-workloads run prints it.
type resultLine struct {
	Workload string `json:"workload"`
	Result   result `json:"result"`
}

// minPairs is the fewest parent/change pairs a verdict other than
// unresolved needs.
const minPairs = 10

// verdict judges one metric of one workload from paired runs of the parent
// (p) and the change (c), run alternately: p[i] and c[i] are a pair.
//
//   - better: the change wins at least 9 in 10 pairs (ties count for
//     neither) and the medians differ by more than the parent's
//     interquartile range;
//   - worse: the change's median is worse than the parent's by more than
//     bound, a share of the parent's median;
//   - unresolved: fewer than minPairs pairs, or the parent's own spread is
//     wider than the bound and not every change run beats every parent run;
//   - unchanged: otherwise.
func verdict(p, c []float64, higherIsBetter bool, bound float64) string {
	n := len(p)
	if n < minPairs {
		return "unresolved"
	}
	sign := 1.0
	if !higherIsBetter {
		sign = -1
	}
	q1, pm, q3 := quartiles(p)
	gain := sign * (median(c) - pm)
	switch {
	case wins(p, c, higherIsBetter)*10 >= 9*n && gain > q3-q1:
		return "better"
	case -gain > bound*pm:
		return "worse"
	case q3-q1 > bound*pm && !allBetter(p, c, sign):
		return "unresolved"
	}
	return "unchanged"
}

// wins counts the pairs in which the change reads better.
func wins(p, c []float64, higherIsBetter bool) int {
	n := 0
	for i := range p {
		if (higherIsBetter && c[i] > p[i]) || (!higherIsBetter && c[i] < p[i]) {
			n++
		}
	}
	return n
}

func allBetter(p, c []float64, sign float64) bool {
	for _, x := range c {
		for _, y := range p {
			if sign*(x-y) <= 0 {
				return false
			}
		}
	}
	return true
}

func readResults(path string) (map[string][]result, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r resultLine
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil || r.Workload == "" {
			return nil, nil, fmt.Errorf("%s:%d: not a {\"workload\", \"result\"} line", path, line)
		}
		if out[r.Workload] == nil {
			order = append(order, r.Workload)
		}
		out[r.Workload] = append(out[r.Workload], r.Result)
	}
	return out, order, sc.Err()
}

// compareFiles prints a verdict for every workload and end-to-end metric
// of BENCHMARK.json. It returns 1 when any metric is worse or any change
// run failed an operation the parent did not, 0 otherwise.
func compareFiles(parentPath, changePath, specPath string, stdout, stderr io.Writer) int {
	var sp spec
	b, err := os.ReadFile(specPath)
	if err == nil {
		err = json.Unmarshal(b, &sp)
	}
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", specPath, err)
		return 2
	}
	parent, order, err := readResults(parentPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	change, _, err := readResults(changePath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	code := 0
	fmt.Fprintf(stdout, "%-12s %-18s %-6s %34s %34s %7s  %s\n", "workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, w := range order {
		p, c := parent[w], change[w]
		n := min(len(p), len(c))
		pFailed, cFailed := failedOps(p[:n]), failedOps(c[:n])
		for _, m := range sp.EndToEnd {
			pv, cv := pairs(p[:n], c[:n], m.Name)
			higher := m.Better == "higher"
			v := verdict(pv, cv, higher, m.Bound)
			if v == "better" && cFailed > pFailed {
				v = "unresolved" // a gain does not count when more operations fail
			}
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-12s %-18s %-6s %34s %34s %3d/%-3d  %s\n", w, m.Name, m.Unit, summary(pv), summary(cv), wins(pv, cv, higher), len(pv), v)
		}
		if cFailed > pFailed {
			fmt.Fprintf(stdout, "%-12s failed operations: parent %d, change %d\n", w, pFailed, cFailed)
			code = 1
		}
	}
	return code
}

// pairs returns the metric's values in the pairs where both runs report it.
func pairs(p, c []result, name string) (pv, cv []float64) {
	for i := range p {
		x, okp := p[i].Metrics[name]
		y, okc := c[i].Metrics[name]
		if okp && okc {
			pv, cv = append(pv, x.Value), append(cv, y.Value)
		}
	}
	return pv, cv
}

func failedOps(rs []result) int {
	n := 0
	for _, r := range rs {
		n += r.Failed
	}
	return n
}

func summary(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, m, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", m, q1, q3)
}
