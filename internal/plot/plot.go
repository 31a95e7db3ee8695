// Package plot renders small ASCII charts for the command-line tools: the
// S-curves of Figures 4 and 5, the ROC curves of Figures 1 and 8, and the
// per-benchmark bars of Figures 6, 7, 9 and 10. Pure text, no
// dependencies; the TSV output remains the machine-readable artifact.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named line on a chart.
type Series struct {
	Name string
	Y    []float64
	// X is optional; when nil, points are spaced evenly by index.
	X []float64
}

// points calls f with every finite point of s; a NaN or infinite
// coordinate (a failed or degenerate cell) is not drawn.
func (s Series) points(f func(x, y float64)) {
	for i, y := range s.Y {
		x := float64(i)
		if s.X != nil {
			x = s.X[i]
		}
		if finite(x) && finite(y) {
			f(x, y)
		}
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// markers assigns one rune per series, in order.
var markers = []rune{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Lines renders one or more series on a shared canvas of the given size.
// Each series draws with its own marker; a legend follows the canvas.
// Non-finite points are skipped.
func Lines(title string, width, height int, series ...Series) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		s.points(func(x, y float64) {
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		})
	}
	if math.IsInf(minX, 1) {
		return title + " (no data)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = []rune(strings.Repeat(" ", width))
	}
	for si, s := range series {
		m := markers[si%len(markers)]
		s.points(func(x, y float64) {
			col := int((x - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int((y-minY)/(maxY-minY)*float64(height-1))
			grid[row][col] = m
		})
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%8.3f ┤%s\n", maxY, string(grid[0]))
	for r := 1; r < height-1; r++ {
		fmt.Fprintf(&b, "         │%s\n", string(grid[r]))
	}
	fmt.Fprintf(&b, "%8.3f ┤%s\n", minY, string(grid[height-1]))
	fmt.Fprintf(&b, "         └%s\n", strings.Repeat("─", width))
	fmt.Fprintf(&b, "          %-8.3g%s%8.3g\n", minX, strings.Repeat(" ", max(0, width-16)), maxX)
	for si, s := range series {
		fmt.Fprintf(&b, "          %c %s\n", markers[si%len(markers)], s.Name)
	}
	return b.String()
}

// Bars renders a horizontal bar chart with one row per label. Values may
// be negative; bars grow from the value closest to zero in range. A NaN
// or infinite value gets an empty bar.
func Bars(title string, width int, labels []string, values []float64) string {
	if len(labels) != len(values) {
		panic("plot: labels/values length mismatch")
	}
	if width < 10 {
		width = 10
	}
	maxLabel := 0
	for _, l := range labels {
		if len(l) > maxLabel {
			maxLabel = len(l)
		}
	}
	minV, maxV := 0.0, 0.0
	for _, v := range values {
		if finite(v) {
			minV = math.Min(minV, v)
			maxV = math.Max(maxV, v)
		}
	}
	span := maxV - minV
	if span == 0 {
		span = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for i, l := range labels {
		n := 0 // a non-finite value prints with no bar
		if finite(values[i]) {
			n = int((values[i] - minV) / span * float64(width))
		}
		fmt.Fprintf(&b, "  %-*s │%-*s %.4f\n", maxLabel, l, width, strings.Repeat("█", n), values[i])
	}
	return b.String()
}

// SCurve is a convenience wrapper for the sorted-by-value presentation of
// Figures 4 and 5: it sorts each series ascending before plotting.
func SCurve(title string, width, height int, series ...Series) string {
	sorted := make([]Series, len(series))
	for i, s := range series {
		ys := append([]float64(nil), s.Y...)
		insertionSort(ys)
		sorted[i] = Series{Name: s.Name, Y: ys}
	}
	return Lines(title, width, height, sorted...)
}

func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
