package sim

import (
	"strings"
	"testing"
)

func TestPlotRendersSeriesAndLegend(t *testing.T) {
	var b strings.Builder
	plot(&b, "test plot",
		[]string{"up", "down"},
		[][]float64{{0, 1, 2, 3}, {3, 2, 1, 0}},
		20, 6)
	out := b.String()
	if !strings.Contains(out, "test plot") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "a=up") || !strings.Contains(out, "b=down") {
		t.Errorf("missing legend: %s", out)
	}
	if !strings.Contains(out, "a") || !strings.Contains(out, "b") {
		t.Error("missing marks")
	}
	// 6 grid rows + title + legend.
	if got := strings.Count(out, "\n"); got != 8 {
		t.Errorf("line count %d, want 8:\n%s", got, out)
	}
}

func TestPlotAxisLabels(t *testing.T) {
	var b strings.Builder
	plot(&b, "t", []string{"s"}, [][]float64{{1, 9}}, 10, 4)
	out := b.String()
	if !strings.Contains(out, "9") || !strings.Contains(out, "1") {
		t.Errorf("missing scale labels:\n%s", out)
	}
}

func TestPlotDegenerate(t *testing.T) {
	var b strings.Builder
	plot(&b, "t", nil, nil, 10, 4)
	plot(&b, "t", []string{"x"}, [][]float64{{}}, 10, 4)
	plot(&b, "t", []string{"x"}, [][]float64{{1, 2}}, 1, 1)
	// Constant series must not divide by zero.
	plot(&b, "t", []string{"x"}, [][]float64{{2, 2, 2}}, 10, 4)
	if strings.Contains(b.String(), "NaN") {
		t.Error("NaN leaked into plot")
	}
}

func TestResampleExactAndStretch(t *testing.T) {
	got := resample([]float64{1, 3}, 4)
	if len(got) != 4 {
		t.Fatalf("stretch length %d", len(got))
	}
	got = resample([]float64{2, 4, 6, 8}, 2)
	if got[0] != 3 || got[1] != 7 {
		t.Errorf("bucket averages = %v, want [3 7]", got)
	}
}
