package sim

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// plot renders the named series as an ASCII line chart of the given
// inner dimensions, one mark per series ('a', 'b', ...), with a y-axis
// scale and a legend. Series may have different lengths; each is
// resampled to the plot width independently.
func plot(w io.Writer, title string, names []string, series [][]float64, width, height int) {
	if len(series) == 0 || width < 2 || height < 2 {
		return
	}
	marks := "abcdefghijklmnop"
	resampled := make([][]float64, len(series))
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, s := range series {
		resampled[i] = resample(s, width)
		slo, shi := bounds(resampled[i])
		lo = math.Min(lo, slo)
		hi = math.Max(hi, shi)
	}
	if math.IsInf(lo, 1) {
		return
	}
	if hi == lo {
		hi = lo + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range resampled {
		mark := marks[si%len(marks)]
		for x, v := range s {
			y := int((v - lo) / (hi - lo) * float64(height-1))
			row := height - 1 - y
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			grid[row][x] = mark
		}
	}

	fmt.Fprintf(w, "%s\n", title)
	for r, line := range grid {
		label := "        "
		switch r {
		case 0:
			label = fmt.Sprintf("%8.3g", hi)
		case height - 1:
			label = fmt.Sprintf("%8.3g", lo)
		}
		fmt.Fprintf(w, "%s |%s|\n", label, line)
	}
	var legend []string
	for i, n := range names {
		if i >= len(series) {
			break
		}
		legend = append(legend, fmt.Sprintf("%c=%s", marks[i%len(marks)], n))
	}
	fmt.Fprintf(w, "%10s%s\n", "", strings.Join(legend, "  "))
}

// resample reduces (or stretches) the series to exactly width points by
// averaging each bucket.
func resample(values []float64, width int) []float64 {
	out := make([]float64, width)
	if len(values) == 0 {
		return out
	}
	for i := 0; i < width; i++ {
		start := i * len(values) / width
		end := (i + 1) * len(values) / width
		if end <= start {
			end = start + 1
		}
		if end > len(values) {
			end = len(values)
		}
		if start >= len(values) {
			start = len(values) - 1
			end = len(values)
		}
		sum := 0.0
		for _, v := range values[start:end] {
			sum += v
		}
		out[i] = sum / float64(end-start)
	}
	return out
}

func bounds(values []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range values {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if math.IsInf(lo, 1) {
		return 0, 0
	}
	return lo, hi
}
