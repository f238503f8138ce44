package stats

import "math"

// Imbalance computes the load imbalance metric
//
//	I = l_max / l_ave - 1
//
// over the given per-rank loads (Eq. 1). A perfectly balanced
// distribution has I = 0. Imbalance returns 0 for an empty slice or when
// the total load is zero (an all-idle system is trivially balanced).
func Imbalance(loads []float64) float64 {
	if len(loads) == 0 {
		return 0
	}
	max, sum := 0.0, 0.0
	for _, l := range loads {
		if l > max {
			max = l
		}
		sum += l
	}
	if sum == 0 {
		return 0
	}
	ave := sum / float64(len(loads))
	return max/ave - 1
}

// LowerBoundMax returns the lower bound for the best achievable maximum
// per-rank load: the larger of the average rank load and the largest
// single task load (a task cannot be split across ranks). This is the
// "Lower bound (max)" curve of Fig. 4b.
func LowerBoundMax(rankAve, maxTaskLoad float64) float64 {
	return math.Max(rankAve, maxTaskLoad)
}
