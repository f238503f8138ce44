package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates the p-quantile of an ascending slice the way
// Python's statistics.quantiles does by default (the "exclusive"
// method), so the spreads printed here match the ones the pipeline
// computes from the same values.
func quantile(s []float64, p float64) float64 {
	n := len(s)
	switch n {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	lo := int(pos)
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// quartiles returns the first quartile, median and third quartile.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	return quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
}

// tailLadder is the set of percentiles a tail may be reported at.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tail picks the highest percentile of the ladder that still has at
// least ten samples beyond it and returns that percentile with its
// nearest-rank value. A percentile backed by fewer samples does not
// repeat between runs, so it is not worth printing. With fewer than
// twenty samples even the median fails the rule; pct is then 0 and the
// value is the largest sample.
func tail(xs []float64) (pct, value float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	for _, p := range tailLadder {
		rank := int(math.Ceil(p/100*float64(n) - 1e-9)) // 99.9% of 20000 is 19980, not 19980.000000000004
		if n-rank >= 10 {
			return p, s[rank-1]
		}
	}
	return 0, s[n-1]
}

// rule says how far one value of a metric may sit from another before
// the two disagree: exactly (to 1e-9), or by a share of the first value
// with an absolute floor below which differences are ignored.
type rule struct {
	exact bool
	rel   float64
	floor float64
}

const exactTol = 1e-9

// within reports whether b agrees with a under the rule. The test is
// symmetric in direction: two sets of runs of the same code must not
// differ either way.
func (r rule) within(a, b float64) bool {
	d := math.Abs(b - a)
	if r.exact {
		return d <= exactTol*math.Max(1, math.Abs(a))
	}
	return d <= math.Max(r.rel*math.Abs(a), r.floor)
}
