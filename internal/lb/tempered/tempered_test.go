package tempered

import (
	"math/rand"
	"testing"

	"temperedlb/internal/core"
)

func skewed(p, hot, n int, seed int64) *core.Assignment {
	rng := rand.New(rand.NewSource(seed))
	a := core.NewAssignment(p)
	for i := 0; i < n; i++ {
		a.Add(0.2+rng.Float64(), core.Rank(rng.Intn(hot)))
	}
	return a
}

func fastTempered() *Strategy {
	cfg := core.Tempered()
	cfg.Trials = 2
	cfg.Iterations = 4
	cfg.Rounds = 5
	cfg.Fanout = 3
	return New(core.EngineConfig{Config: cfg})
}

func TestStrategyImproves(t *testing.T) {
	a := skewed(32, 2, 500, 1)
	plan, err := fastTempered().Rebalance(a)
	if err != nil {
		t.Fatal(err)
	}
	if plan.FinalImbalance >= plan.InitialImbalance/3 {
		t.Errorf("weak improvement: %g -> %g", plan.InitialImbalance, plan.FinalImbalance)
	}
	plan.Apply(a)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStrategyNames(t *testing.T) {
	if NewTempered().Name() != "TemperedLB" {
		t.Error("tempered name")
	}
	if NewGrapevine().Name() != "GrapevineLB" {
		t.Error("grapevine name")
	}
}

func TestGrapevineConfigMatchesOriginal(t *testing.T) {
	cfg := NewGrapevine().Config()
	if cfg.Criterion != core.CriterionOriginal || cfg.CMF != core.CMFOriginal ||
		cfg.RecomputeCMF || cfg.Order != core.OrderArbitrary ||
		cfg.Trials != 1 || cfg.Iterations != 1 {
		t.Errorf("grapevine config drifted: %+v", cfg)
	}
}

func TestTemperedConfigMatchesPaper(t *testing.T) {
	cfg := NewTempered().Config()
	if cfg.Criterion != core.CriterionRelaxed || cfg.CMF != core.CMFModified ||
		!cfg.RecomputeCMF || cfg.Order != core.OrderFewestMigrations ||
		cfg.Trials != 10 || cfg.Iterations != 8 {
		t.Errorf("tempered config drifted: %+v", cfg)
	}
}

func TestStrategyMessagesAccounted(t *testing.T) {
	a := skewed(32, 2, 200, 2)
	plan, err := fastTempered().Rebalance(a)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Messages <= 0 {
		t.Error("no gossip messages accounted")
	}
	if plan.MovedLoad <= 0 || plan.MovedTasks() == 0 {
		t.Error("no moves on a skewed workload")
	}
}

func TestStrategyBadConfig(t *testing.T) {
	cfg := core.Tempered()
	cfg.Rounds = 0
	if _, err := New(core.EngineConfig{Config: cfg}).Rebalance(skewed(8, 1, 10, 3)); err == nil {
		t.Error("bad config accepted")
	}
}
