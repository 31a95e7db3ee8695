// Package stats provides the metrics used throughout the evaluation:
// misses per kilo-instruction, IPC-derived speedups, weighted speedup for
// multi-programmed workloads (Section 4.5), geometric means, and receiver
// operating characteristic (ROC) curves for predictor accuracy (Section
// 6.3).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// MPKI computes misses per 1000 instructions. A zero-instruction window is
// a panic, not a silent 0: it means the measurement loop never ran (a dry
// generator, a degenerate segment) and reporting "no misses" for it would
// corrupt aggregates undetectably. Under the experiment engine the panic
// surfaces as a captured per-cell failure, the same way the batch readers'
// dry-generator panic does.
func MPKI(misses, instructions uint64) float64 {
	if instructions == 0 {
		panic(fmt.Sprintf("stats: MPKI over a zero-instruction window (%d misses); the measurement loop never ran", misses))
	}
	return 1000 * float64(misses) / float64(instructions)
}

// GeoMean returns the geometric mean of xs. All values must be positive;
// it returns 0 for an empty slice. A non-positive value is a panic — the
// strict mode for fail-fast runs; drivers that degrade gracefully
// (experiments.Run.KeepGoing) aggregate with GeoMeanLenient instead. NaN
// entries (failed cells) flow through and yield NaN.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %g", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// GeoMeanLenient is GeoMean for graceful-degradation paths: instead of
// panicking, non-positive entries poison the result to NaN (matching how a
// failed cell's NaN renders in the TSVs) and are counted in bad, so the
// caller can log how many degenerate values — an IPC of 0 from a
// zero-instruction segment, say — the aggregate absorbed. NaN entries also
// yield NaN but are not counted as bad: they are explicit failure markers,
// not silently-degenerate data.
func GeoMeanLenient(xs []float64) (gm float64, bad int) {
	for _, x := range xs {
		if x <= 0 { // NaN compares false, so this counts only real non-positives
			bad++
		}
	}
	if bad > 0 {
		return math.NaN(), bad
	}
	return GeoMean(xs), 0
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// WeightedMean returns sum(w_i * x_i) / sum(w_i); weights need not be
// normalized. Used for combining a benchmark's segment results with
// simpoint-style weights.
func WeightedMean(xs, ws []float64) float64 {
	if len(xs) != len(ws) {
		panic("stats: WeightedMean length mismatch")
	}
	var sx, sw float64
	for i := range xs {
		sx += xs[i] * ws[i]
		sw += ws[i]
	}
	if sw == 0 {
		return 0
	}
	return sx / sw
}

// Sorted returns a sorted copy of xs (ascending), for S-curve plots.
func Sorted(xs []float64) []float64 {
	out := make([]float64, len(xs))
	copy(out, xs)
	sort.Float64s(out)
	return out
}

// SortedDesc returns a sorted copy of xs (descending).
func SortedDesc(xs []float64) []float64 {
	out := Sorted(xs)
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// WeightedSpeedup computes the paper's multi-programmed metric: for each
// thread i, IPC_i under the evaluated policy divided by SingleIPC_i (the
// thread alone with the full LLC under LRU), summed over threads. The
// reported number is this weighted IPC normalized by the same quantity
// under LRU.
func WeightedSpeedup(ipc, singleIPC []float64) float64 {
	if len(ipc) != len(singleIPC) {
		panic("stats: WeightedSpeedup length mismatch")
	}
	sum := 0.0
	for i := range ipc {
		if singleIPC[i] <= 0 {
			panic("stats: non-positive single-thread IPC")
		}
		sum += ipc[i] / singleIPC[i]
	}
	return sum
}

// ROCSample is one prediction outcome: the predictor's confidence that the
// block is dead, and the ground truth (whether the block really was dead,
// i.e. evicted without reuse).
type ROCSample struct {
	Confidence int
	Dead       bool
}

// ROCPoint is one point of an ROC curve at a given confidence threshold:
// blocks with Confidence >= Threshold are classified dead.
type ROCPoint struct {
	Threshold int
	// TPR is the true positive rate: dead blocks predicted dead.
	TPR float64
	// FPR is the false positive rate: live blocks predicted dead.
	FPR float64
}

// ROCTally counts the outcomes seen at one confidence value.
type ROCTally struct{ Dead, Live int }

// ROCCounts maps each confidence value to its outcome counts. An ROC
// curve depends on nothing else, so a table holds a run's samples in
// space proportional to its distinct confidences, and runs pool by
// addition (Add).
type ROCCounts map[int]ROCTally

// CountROC tallies samples by confidence.
func CountROC(samples []ROCSample) ROCCounts {
	c := ROCCounts{}
	for _, s := range samples {
		t := c[s.Confidence]
		if s.Dead {
			t.Dead++
		} else {
			t.Live++
		}
		c[s.Confidence] = t
	}
	return c
}

// Add pools o into c.
func (c ROCCounts) Add(o ROCCounts) {
	for conf, t := range o {
		sum := c[conf]
		sum.Dead += t.Dead
		sum.Live += t.Live
		c[conf] = sum
	}
}

// Samples returns the number of outcomes counted.
func (c ROCCounts) Samples() int {
	n := 0
	for _, t := range c {
		n += t.Dead + t.Live
	}
	return n
}

// ROC computes the ROC curve over all distinct thresholds present in the
// samples, ordered by increasing FPR (decreasing threshold). Section 6.3:
// "The false positive rate is the fraction of live blocks that are
// mispredicted as dead, while the true positive rate is the fraction of
// dead blocks that are correctly predicted."
func ROC(samples []ROCSample) []ROCPoint {
	return CountROC(samples).Curve()
}

// Curve is the ROC curve of the counted samples (see ROC).
func (c ROCCounts) Curve() []ROCPoint {
	confs := make([]int, 0, len(c))
	var totalDead, totalLive int
	for conf, t := range c {
		confs = append(confs, conf)
		totalDead += t.Dead
		totalLive += t.Live
	}
	sort.Sort(sort.Reverse(sort.IntSlice(confs)))

	var points []ROCPoint
	var tp, fp int
	for _, thr := range confs {
		tp += c[thr].Dead
		fp += c[thr].Live
		pt := ROCPoint{Threshold: thr}
		if totalDead > 0 {
			pt.TPR = float64(tp) / float64(totalDead)
		}
		if totalLive > 0 {
			pt.FPR = float64(fp) / float64(totalLive)
		}
		points = append(points, pt)
	}
	return points
}

// AUC returns the area under an ROC curve computed by ROC (trapezoidal,
// anchored at (0,0) and (1,1)).
func AUC(points []ROCPoint) float64 {
	if len(points) == 0 {
		return 0
	}
	area := 0.0
	px, py := 0.0, 0.0
	for _, p := range points {
		area += (p.FPR - px) * (p.TPR + py) / 2
		px, py = p.FPR, p.TPR
	}
	area += (1 - px) * (1 + py) / 2
	return area
}

// TPRAtFPR linearly interpolates the curve's true positive rate at a target
// false positive rate, for comparisons like the paper's "FPR 25-31% band".
// A target beyond the curve's last point interpolates toward the (1,1)
// anchor — the same anchor AUC integrates to — rather than returning the
// last point's raw TPR, so the two views of one curve agree.
func TPRAtFPR(points []ROCPoint, fpr float64) float64 {
	if len(points) == 0 {
		return 0
	}
	px, py := 0.0, 0.0
	for _, p := range points {
		if p.FPR >= fpr {
			if p.FPR == px {
				return p.TPR
			}
			frac := (fpr - px) / (p.FPR - px)
			return py + frac*(p.TPR-py)
		}
		px, py = p.FPR, p.TPR
	}
	// fpr lies past the last measured point: interpolate the tail segment
	// from (px,py) to the implicit (1,1) endpoint.
	if fpr >= 1 || px >= 1 {
		return 1
	}
	frac := (fpr - px) / (1 - px)
	return py + frac*(1-py)
}
