package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestImbalanceBalanced(t *testing.T) {
	if got := Imbalance([]float64{3, 3, 3, 3}); !almostEqual(got, 0) {
		t.Errorf("Imbalance(balanced) = %g, want 0", got)
	}
}

func TestImbalanceKnownValue(t *testing.T) {
	// max = 6, ave = 3 -> I = 1.
	if got := Imbalance([]float64{6, 2, 2, 2}); !almostEqual(got, 1) {
		t.Errorf("Imbalance = %g, want 1", got)
	}
}

func TestImbalanceEmptyAndZero(t *testing.T) {
	if got := Imbalance(nil); got != 0 {
		t.Errorf("Imbalance(nil) = %g, want 0", got)
	}
	if got := Imbalance([]float64{0, 0}); got != 0 {
		t.Errorf("Imbalance(zeros) = %g, want 0", got)
	}
}

func TestImbalanceSingleRank(t *testing.T) {
	if got := Imbalance([]float64{5}); !almostEqual(got, 0) {
		t.Errorf("Imbalance(single) = %g, want 0", got)
	}
}

func TestImbalanceNonNegativeProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		loads := make([]float64, len(raw))
		for i, v := range raw {
			loads[i] = float64(v)
		}
		return Imbalance(loads) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestImbalanceScaleInvariantProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		loads := make([]float64, n)
		for i := range loads {
			loads[i] = rng.Float64() * 10
		}
		scale := 0.1 + rng.Float64()*10
		scaled := make([]float64, n)
		for i := range loads {
			scaled[i] = loads[i] * scale
		}
		if a, b := Imbalance(loads), Imbalance(scaled); !almostEqual(a, b) {
			t.Fatalf("imbalance not scale invariant: %g vs %g (scale %g)", a, b, scale)
		}
	}
}

func TestImbalanceZeroIffEqualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(10)
		loads := make([]float64, n)
		for i := range loads {
			loads[i] = 1 + rng.Float64()
		}
		if Imbalance(loads) <= 1e-12 {
			t.Fatalf("random unequal loads gave I=0: %v", loads)
		}
	}
}

func TestLowerBoundMax(t *testing.T) {
	if got := LowerBoundMax(2, 5); got != 5 {
		t.Errorf("LowerBoundMax = %g, want 5", got)
	}
	if got := LowerBoundMax(7, 5); got != 7 {
		t.Errorf("LowerBoundMax = %g, want 7", got)
	}
}
