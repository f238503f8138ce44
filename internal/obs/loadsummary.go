package obs

import "math"

// LoadCells is the most cells a load summary carries: what a dashboard
// row can show, and small enough to ride a statistics reduce.
const LoadCells = 64

// LoadSummary is the layout of the fixed-width summary of a job's
// per-rank loads that a producer appends to a reduce its protocol
// already takes, so that observing a run adds no collective and no
// O(P) vector on any rank. Its elements are
//
//	[ Σl², −min, cell 0 … cell c−1 ]      c = min(P, LoadCells)
//
// where cell i is the largest load among ranks [i·P/c, (i+1)·P/c) —
// the bucketing a dashboard folds a wide load vector into, and the
// exact vector when P ≤ LoadCells. The first element sums across
// ranks; every other one takes the maximum (the minimum rides negated).
type LoadSummary struct {
	ranks, cells int
}

// NewLoadSummary lays out the summary for a job of the given rank count.
func NewLoadSummary(ranks int) LoadSummary {
	return LoadSummary{ranks: ranks, cells: min(ranks, LoadCells)}
}

// Width is the number of reduce elements the summary occupies.
func (s LoadSummary) Width() int { return 2 + s.cells }

// WithSummaryOps returns base followed by the summary's per-element
// combine, spelled in the caller's operator type: the ops of a reduce
// that carries the summary after its own len(base) elements.
func WithSummaryOps[T any](base []T, s LoadSummary, sum, max T) []T {
	ops := make([]T, 0, len(base)+s.Width())
	ops = append(append(ops, base...), sum)
	for len(ops) < cap(ops) {
		ops = append(ops, max)
	}
	return ops
}

// Append appends one rank's contribution to dst: its load in the cell
// that covers it and −Inf in the others, which therefore leave the
// cell's maximum to the ranks it does cover.
func (s LoadSummary) Append(dst []float64, rank int, load float64) []float64 {
	dst = append(dst, load*load, -load)
	for i := 0; i < s.cells; i++ {
		dst = append(dst, math.Inf(-1))
	}
	// The cell of rank r is the largest i with i·P/c ≤ r.
	dst[len(dst)-s.cells+((rank+1)*s.cells-1)/s.ranks] = load
	return dst
}

// Fill sets the frame's rank count, load cells and load statistics from
// a reduced summary and the job's total load. Loads aliases reduced: a
// collective's result, one read-only slice every rank of the node shares,
// so neither the frame's publisher nor its readers may write it. The
// maximum, minimum and cells are exact; the deviation comes from the
// moments, Σl²/P − avg², clamped at zero against cancellation.
func (s LoadSummary) Fill(f *Snapshot, reduced []float64, total float64) {
	n := float64(s.ranks)
	f.Ranks = s.ranks
	f.Loads = reduced[2:s.Width()]
	f.MaxLoad = f.Loads[0]
	for _, l := range f.Loads[1:] {
		f.MaxLoad = math.Max(f.MaxLoad, l)
	}
	f.MinLoad = -reduced[1]
	f.AvgLoad = total / n
	f.StdDev = math.Sqrt(math.Max(0, reduced[0]/n-f.AvgLoad*f.AvgLoad))
	f.Imbalance = 0
	if f.AvgLoad > 0 {
		f.Imbalance = f.MaxLoad/f.AvgLoad - 1
	}
}
