package main

import (
	"math"
	"testing"
)

// The speed sampler always has the sample it takes before the op, every
// sample is a positive CPU time, and stopping it ends its thread.
func TestSampleSpeed(t *testing.T) {
	samples := sampleSpeed()()
	if len(samples) < 1 {
		t.Fatalf("no sample")
	}
	for _, s := range samples {
		if s <= 0 || s > 1 {
			t.Errorf("kernel time %g s", s)
		}
	}
}

// Durations are scaled by the op's speed factor, the rate is divided by
// it, and what is not a time is left as measured.
func TestDurationsAreScaled(t *testing.T) {
	s := opSample{SetupS: 0.5, WallS: 2, CPUS: 3, AllocMB: 10, Msgs: 1000, IterS: []float64{0.25, 0.5},
		FinalImb: 1.5, Migrations: 7, Scale: 0.5}
	want := map[string][]float64{
		"setup_s": {0.25}, "op_s_p50": {1}, "iter_s_p50": {0.125, 0.25}, "msgs_per_s": {1000},
		"cpu_s_per_op": {1.5}, "alloc_mb_per_op": {10}, "final_imbalance": {1.5}, "migrations_per_op": {7},
	}
	for name, w := range want {
		got := endToEndMetric(name).Sample(s)
		if len(got) != len(w) {
			t.Errorf("%s: %v, want %v", name, got, w)
			continue
		}
		for i := range w {
			if math.Abs(got[i]-w[i]) > 1e-12 {
				t.Errorf("%s: %v, want %v", name, got, w)
			}
		}
	}
}
