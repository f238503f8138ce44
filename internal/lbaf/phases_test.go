package lbaf

import (
	"testing"

	"temperedlb/internal/core"
	"temperedlb/internal/lb/greedy"
	"temperedlb/internal/lb/tempered"
	"temperedlb/internal/workload"
)

func phaseWorkload(t *testing.T, seed int64) *core.Assignment {
	t.Helper()
	a, err := workload.Generate(workload.Spec{
		NumRanks: 24, NumTasks: 360,
		Placement: workload.PlaceClustered, LoadedRanks: 3,
		Loads: workload.LoadUniform, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func phaseStrategy() *tempered.Strategy {
	cfg := core.EngineConfig{Config: core.Tempered()}
	cfg.Trials, cfg.Iterations = 2, 4
	cfg.Rounds, cfg.Fanout = 4, 3
	return tempered.New(cfg)
}

func TestPhaseStudyPersistentLoadsNearIdeal(t *testing.T) {
	a := phaseWorkload(t, 1)
	ev, err := workload.NewEvolver(a, 1.0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPhaseStudy(a, ev, phaseStrategy(), 60, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Frozen loads: after the first rebalance (end of phase 2) every
	// later phase runs near the ideal floor; only the two warmup phases
	// at the initial imbalance drag the aggregate down.
	if res.Efficiency() < 0.65 {
		t.Errorf("efficiency %g with frozen loads, want near 1 after warmup", res.Efficiency())
	}
	if res.Speedup() < 2 {
		t.Errorf("speedup %g over static, want substantial", res.Speedup())
	}
	if res.Rebalances != 30 {
		t.Errorf("rebalances = %d, want 30", res.Rebalances)
	}
}

// TestPhaseStudyPersistenceMatters is the §III-B experiment: efficiency
// must decline monotonically (within tolerance) as phase-to-phase
// correlation drops, because every LB decision is computed from stale
// instrumentation.
func TestPhaseStudyPersistenceMatters(t *testing.T) {
	eff := func(persistence float64) float64 {
		a := phaseWorkload(t, 3)
		ev, err := workload.NewEvolver(a, persistence, 0.4, 4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunPhaseStudy(a, ev, phaseStrategy(), 60, 5)
		if err != nil {
			t.Fatal(err)
		}
		return res.Efficiency()
	}
	high := eff(0.98)
	low := eff(0.0)
	if high <= low {
		t.Errorf("efficiency should fall with persistence: rho=0.98 -> %g, rho=0 -> %g", high, low)
	}
}

func TestPhaseStudyDoesNotModifyInput(t *testing.T) {
	a := phaseWorkload(t, 5)
	owners := a.Owners()
	loads := a.RankLoads()
	ev, _ := workload.NewEvolver(a, 0.9, 0.1, 6)
	if _, err := RunPhaseStudy(a, ev, greedy.New(), 20, 5); err != nil {
		t.Fatal(err)
	}
	for i, o := range a.Owners() {
		if owners[i] != o {
			t.Fatal("input owners mutated")
		}
	}
	for r, l := range a.RankLoads() {
		if loads[r] != l {
			t.Fatal("input loads mutated")
		}
	}
}

func TestPhaseStudyValidation(t *testing.T) {
	a := phaseWorkload(t, 7)
	ev, _ := workload.NewEvolver(a, 0.9, 0.1, 8)
	if _, err := RunPhaseStudy(a, ev, greedy.New(), 0, 5); err == nil {
		t.Error("zero phases accepted")
	}
	if _, err := RunPhaseStudy(a, ev, greedy.New(), 5, 0); err == nil {
		t.Error("zero period accepted")
	}
}

func TestEvolverValidation(t *testing.T) {
	a := phaseWorkload(t, 9)
	if _, err := workload.NewEvolver(a, -0.1, 0.1, 1); err == nil {
		t.Error("negative persistence accepted")
	}
	if _, err := workload.NewEvolver(a, 1.1, 0.1, 1); err == nil {
		t.Error("persistence > 1 accepted")
	}
	if _, err := workload.NewEvolver(a, 0.5, -1, 1); err == nil {
		t.Error("negative noise accepted")
	}
}

func TestEvolverFrozenAndPositive(t *testing.T) {
	a := phaseWorkload(t, 10)
	frozen, _ := workload.NewEvolver(a, 1.0, 0, 11)
	before := append([]float64(nil), frozen.Loads()...)
	after := frozen.Step()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("frozen loads changed")
		}
	}
	noisy, _ := workload.NewEvolver(a, 0.0, 5.0, 12)
	for p := 0; p < 50; p++ {
		for _, l := range noisy.Step() {
			if l <= 0 {
				t.Fatal("load went non-positive")
			}
		}
	}
}
