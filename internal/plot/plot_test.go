package plot

import (
	"math"
	"strings"
	"testing"
)

func TestLinesBasic(t *testing.T) {
	out := Lines("test", 20, 5, Series{Name: "a", Y: []float64{1, 2, 3, 4}})
	if !strings.Contains(out, "test") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "* a") {
		t.Fatal("missing legend")
	}
	if !strings.Contains(out, "4.000") || !strings.Contains(out, "1.000") {
		t.Fatalf("missing axis labels:\n%s", out)
	}
	// Ascending data: the first canvas row must contain the marker near
	// the right edge.
	lines := strings.Split(out, "\n")
	top := lines[1]
	if !strings.Contains(top, "*") {
		t.Fatalf("top row empty for ascending data:\n%s", out)
	}
	if strings.Index(top, "*") < len(top)/2 {
		t.Fatalf("max of ascending series not on the right:\n%s", out)
	}
}

func TestLinesMultipleSeriesDistinctMarkers(t *testing.T) {
	out := Lines("two", 24, 6,
		Series{Name: "up", Y: []float64{0, 1, 2}},
		Series{Name: "down", Y: []float64{2, 1, 0}},
	)
	if !strings.Contains(out, "* up") || !strings.Contains(out, "o down") {
		t.Fatalf("legend wrong:\n%s", out)
	}
	if !strings.Contains(out, "o") {
		t.Fatal("second marker absent from canvas")
	}
}

func TestLinesEmpty(t *testing.T) {
	out := Lines("empty", 20, 5)
	if !strings.Contains(out, "no data") {
		t.Fatalf("empty chart output: %q", out)
	}
}

func TestLinesConstantSeries(t *testing.T) {
	// Must not divide by zero on a flat line.
	out := Lines("flat", 20, 5, Series{Name: "c", Y: []float64{2, 2, 2}})
	if !strings.Contains(out, "*") {
		t.Fatalf("flat series missing markers:\n%s", out)
	}
}

func TestLinesWithExplicitX(t *testing.T) {
	out := Lines("xy", 20, 5, Series{Name: "p", Y: []float64{0, 1}, X: []float64{0.5, 0.9}})
	if !strings.Contains(out, "0.5") || !strings.Contains(out, "0.9") {
		t.Fatalf("x-axis labels missing:\n%s", out)
	}
}

func TestBars(t *testing.T) {
	out := Bars("bars", 10, []string{"aa", "b"}, []float64{1.0, 0.5})
	if !strings.Contains(out, "aa") || !strings.Contains(out, "█") {
		t.Fatalf("bar chart malformed:\n%s", out)
	}
	// Larger value gets a longer bar.
	lines := strings.Split(out, "\n")
	if strings.Count(lines[1], "█") <= strings.Count(lines[2], "█") {
		t.Fatalf("bars not proportional:\n%s", out)
	}
}

func TestBarsMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatch")
		}
	}()
	Bars("x", 10, []string{"a"}, []float64{1, 2})
}

func TestSCurveSortsWithoutMutating(t *testing.T) {
	in := []float64{3, 1, 2}
	SCurve("s", 20, 5, Series{Name: "s", Y: in})
	if in[0] != 3 || in[1] != 1 {
		t.Fatal("SCurve mutated the input")
	}
}

// TestNonFinitePointsSkipped: a NaN or infinite value — a failed cell, or
// a 0/0 MPKI ratio — is left off the chart instead of becoming int(NaN)
// as a canvas index or a bar length.
func TestNonFinitePointsSkipped(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	out := Lines("gaps", 20, 5,
		Series{Name: "a", Y: []float64{1, nan, 3, inf}},
		Series{Name: "b", X: []float64{nan, 2}, Y: []float64{2, 2}})
	if !strings.Contains(out, "3.000 ┤") || !strings.Contains(out, "1.000 ┤") {
		t.Fatalf("axis should span the finite points only:\n%s", out)
	}
	if got := Lines("none", 20, 5, Series{Name: "a", Y: []float64{nan, -inf}}); got != "none (no data)\n" {
		t.Fatalf("all-NaN series: got %q", got)
	}
	bars := Bars("bars", 10, []string{"x", "y", "z"}, []float64{2, nan, -inf})
	for _, row := range strings.Split(bars, "\n")[2:4] {
		if strings.Contains(row, "█") {
			t.Errorf("non-finite value drew a bar: %q", row)
		}
	}
	if !strings.Contains(bars, "NaN") || !strings.Contains(bars, "██████████ 2.0000") {
		t.Fatalf("finite bar or NaN label missing:\n%s", bars)
	}
}
