package lbaf

import (
	"strings"
	"testing"

	"temperedlb/internal/core"
	"temperedlb/internal/workload"
)

// smallVB is a scaled-down §V-B case that keeps the qualitative shape
// (clustered placement, light/heavy mixture) while running fast.
func smallVB(seed int64) workload.Spec {
	s := workload.VBCase(seed)
	s.NumRanks = 512
	s.LoadedRanks = 8
	s.NumTasks = 1500
	return s
}

func smallConfig() core.Config {
	cfg := core.Grapevine()
	cfg.Iterations = 6
	cfg.Rounds = 6
	cfg.Fanout = 4
	return cfg
}

func TestRunIterationTableOriginalStalls(t *testing.T) {
	table, err := RunIterationTable("orig", smallVB(1), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 6 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	first := table.Rows[0].Imbalance
	last := table.Rows[len(table.Rows)-1].Imbalance
	// Original criterion: improves in iteration 1, then stalls high —
	// heavy tasks above l_ave are permanently unplaceable.
	if first >= table.InitialImbalance {
		t.Errorf("iteration 1 did not improve: %g -> %g", table.InitialImbalance, first)
	}
	if last < 5 {
		t.Errorf("original criterion converged too well (I=%g); mixture should trap it", last)
	}
	// Late iterations reach near-total rejection.
	lastRow := table.Rows[len(table.Rows)-1]
	if lastRow.RejectionRate < 90 {
		t.Errorf("late rejection rate %g%%, want >90%%", lastRow.RejectionRate)
	}
}

func TestRunIterationTableRelaxedConverges(t *testing.T) {
	cfg := smallConfig()
	cfg.Criterion = core.CriterionRelaxed
	cfg.CMF = core.CMFModified
	cfg.RecomputeCMF = true
	table, err := RunIterationTable("relaxed", smallVB(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := table.Rows[len(table.Rows)-1].Imbalance
	if last > 2 {
		t.Errorf("relaxed criterion stuck at I=%g, want < 2", last)
	}
	// Early rejection must be low (the §V-D signature).
	if table.Rows[0].RejectionRate > 30 {
		t.Errorf("iteration-1 rejection %g%%, want low", table.Rows[0].RejectionRate)
	}
}

func TestRunComparisonRelaxedWins(t *testing.T) {
	c, err := RunComparison(smallVB(2), core.EngineConfig{Config: smallConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if c.Original.InitialImbalance != c.Relaxed.InitialImbalance {
		t.Errorf("comparison not on identical initial distributions: %g vs %g",
			c.Original.InitialImbalance, c.Relaxed.InitialImbalance)
	}
	oLast := c.Original.Rows[len(c.Original.Rows)-1].Imbalance
	rLast := c.Relaxed.Rows[len(c.Relaxed.Rows)-1].Imbalance
	if rLast >= oLast/3 {
		t.Errorf("relaxed (%g) should beat original (%g) by a wide margin", rLast, oLast)
	}
}

func TestTableRender(t *testing.T) {
	table, err := RunIterationTable("title-x", smallVB(3), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := table.String()
	if !strings.Contains(s, "title-x") || !strings.Contains(s, "Iteration") {
		t.Errorf("render missing headers:\n%s", s)
	}
	// One line per iteration plus header, title, row 0 and gossip line.
	lines := strings.Count(s, "\n")
	if lines != len(table.Rows)+4 {
		t.Errorf("render has %d lines, want %d", lines, len(table.Rows)+4)
	}
}

func TestComparisonRender(t *testing.T) {
	c, err := RunComparison(smallVB(4), core.EngineConfig{Config: smallConfig()})
	if err != nil {
		t.Fatal(err)
	}
	s := c.String()
	if !strings.Contains(s, "Criterion 35") || !strings.Contains(s, "Criterion 37") {
		t.Errorf("comparison render missing columns:\n%s", s)
	}
}

func TestRunIterationTableForcesSingleTrial(t *testing.T) {
	cfg := smallConfig()
	cfg.Trials = 5
	table, err := RunIterationTable("x", smallVB(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != cfg.Iterations {
		t.Errorf("rows %d, want %d (single trial)", len(table.Rows), cfg.Iterations)
	}
}

func TestRunIterationTableBadSpec(t *testing.T) {
	spec := smallVB(1)
	spec.NumRanks = 0
	if _, err := RunIterationTable("x", spec, smallConfig()); err == nil {
		t.Error("expected error for bad spec")
	}
}

func TestRunIterationTableBadConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.Fanout = 0
	if _, err := RunIterationTable("x", smallVB(1), cfg); err == nil {
		t.Error("expected error for bad config")
	}
}

func TestRunIterationTableDeterministic(t *testing.T) {
	t1, err := RunIterationTable("x", smallVB(6), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	t2, _ := RunIterationTable("x", smallVB(6), smallConfig())
	if t1.String() != t2.String() {
		t.Error("tables differ across identical runs")
	}
}

func TestGossipAccountingPositive(t *testing.T) {
	table, err := RunIterationTable("x", smallVB(7), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if table.GossipMessages == 0 || table.GossipEntries == 0 {
		t.Errorf("gossip accounting empty: %d msgs %d entries",
			table.GossipMessages, table.GossipEntries)
	}
}

func TestRunSweepGossipGrid(t *testing.T) {
	base := core.EngineConfig{Config: core.Tempered()}
	base.Trials, base.Iterations = 1, 3
	configs := GossipSweepConfigs(base, []int{2, 4}, []int{2, 4})
	if len(configs) != 4 {
		t.Fatalf("grid size %d", len(configs))
	}
	sw, err := RunSweep("gossip", smallVB(20), configs)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != 4 {
		t.Fatalf("points %d", len(sw.Points))
	}
	// More fanout and rounds never reduce the message count.
	first, last := sw.Points[0], sw.Points[3]
	if last.GossipMessages <= first.GossipMessages {
		t.Errorf("f=4,k=4 messages %d <= f=2,k=2 %d", last.GossipMessages, first.GossipMessages)
	}
	var b strings.Builder
	sw.Render(&b)
	if !strings.Contains(b.String(), "f=2 k=2") {
		t.Error("render missing labels")
	}
}

func TestRunSweepRefinementGrid(t *testing.T) {
	base := core.EngineConfig{Config: core.Tempered()}
	base.Rounds, base.Fanout = 4, 3
	configs := RefinementSweepConfigs(base, []int{1, 3}, []int{1, 4})
	sw, err := RunSweep("refinement", smallVB(21), configs)
	if err != nil {
		t.Fatal(err)
	}
	// The biggest budget must be at least as good as the smallest.
	if sw.Points[3].FinalImbalance > sw.Points[0].FinalImbalance+1e-9 {
		t.Errorf("3x4 budget (%g) worse than 1x1 (%g)",
			sw.Points[3].FinalImbalance, sw.Points[0].FinalImbalance)
	}
}

func TestRunSweepBadConfig(t *testing.T) {
	bad := core.EngineConfig{Config: core.Tempered()}
	bad.Fanout = 0
	_, err := RunSweep("x", smallVB(22), []SweepConfig{{Label: "bad", Cfg: bad}})
	if err == nil {
		t.Error("bad config accepted")
	}
}
