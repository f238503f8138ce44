package main

import (
	"math"
	"testing"
)

func TestTailPicksHighestPercentileWithTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		pct, want float64
	}{
		{5, 0, 5},            // too few for any percentile: the maximum, marked 0
		{19, 0, 19},          // the median would leave 9 beyond
		{20, 50, 10},         // exactly ten beyond the median
		{48, 75, 36},         // 16 iterations x 3 ops
		{100, 90, 90},        // p95 would leave 5
		{200, 95, 190},       // p95 leaves exactly ten
		{3200, 99, 3168},     // p99.9 would leave 3
		{20000, 99.9, 19980}, // enough for the top of the ladder
	} {
		pct, v := tail(ramp(tc.n))
		if pct != tc.pct || v != tc.want {
			t.Errorf("tail of %d samples = p%g %g, want p%g %g", tc.n, pct, v, tc.pct, tc.want)
		}
	}
	if pct, v := tail(nil); pct != 0 || v != 0 {
		t.Errorf("tail of nothing = p%g %g", pct, v)
	}
}

// The quartiles must be the ones Python's statistics.quantiles(n=4)
// returns, because the pipeline judges the benchmark's spread with them.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	xs := []float64{12, 3, 7, 1, 9, 15, 4, 8, 20, 6} // quantiles -> [3.75, 7.5, 12.75]
	q1, q2, q3 := quartiles(xs)
	if q1 != 3.75 || q2 != 7.5 || q3 != 12.75 {
		t.Errorf("quartiles = %g %g %g, want 3.75 7.5 12.75", q1, q2, q3)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of three = %g", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median of nothing = %g", m)
	}
}

func TestRuleKinds(t *testing.T) {
	relative := rule{rel: 0.10}
	floored := rule{rel: 0.15, floor: 0.005}
	exact := rule{exact: true}
	for _, tc := range []struct {
		name string
		r    rule
		a, b float64
		want bool
	}{
		{"relative inside", relative, 1.0, 1.09, true},
		{"relative outside", relative, 1.0, 1.11, false},
		{"relative is symmetric", relative, 1.0, 0.89, false},
		{"floor forgives a small absolute step", floored, 0.001, 0.004, true},
		{"floor does not forgive a large one", floored, 0.001, 0.007, false},
		{"above the floor the share rules", floored, 1.0, 1.14, true},
		{"exact equal", exact, 3.25, 3.25, true},
		{"exact to 1e-9 of the value", exact, 1000, 1000 + 5e-7, true},
		{"exact rejects a real difference", exact, 3.25, 3.2500001, false},
		{"exact on small values is absolute", exact, 0.05, 0.05 + 5e-10, true},
	} {
		if got := tc.r.within(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: within(%g, %g) = %v, want %v", tc.name, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestAgreeRulePerWorkload(t *testing.T) {
	fin, setup := endToEndMetric("final_imbalance"), endToEndMetric("setup_s")
	if !fin.agreeRule(wlB).exact || fin.agreeRule(wlA).exact {
		t.Errorf("final_imbalance must be exact on the protocol-determined workloads and relative on A")
	}
	if r := setup.agreeRule(wlC); r.exact || r.floor != 0.005 || math.Abs(r.rel-setup.Bound) > 0 {
		t.Errorf("setup_s rule = %+v", r)
	}
}
