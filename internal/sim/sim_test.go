package sim

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"temperedlb/internal/core"
	"temperedlb/internal/empire"
	"temperedlb/internal/lb"
	"temperedlb/internal/lb/greedy"
	"temperedlb/internal/lb/tempered"
)

func quickTweak(c core.EngineConfig) core.EngineConfig {
	c.Trials = 2
	c.Iterations = 3
	c.Rounds = 3
	return c
}

func runSmall(t *testing.T) []*Tracker {
	t.Helper()
	trackers := StandardTrackers(quickTweak)
	if _, err := RunTrackers(empire.Small(), trackers); err != nil {
		t.Fatal(err)
	}
	return trackers
}

// runMedium runs the 64-rank configuration that exhibits the paper's
// quality gaps; cached across tests needing it.
func runMedium(t *testing.T) []*Tracker {
	t.Helper()
	trackers := StandardTrackers(func(c core.EngineConfig) core.EngineConfig {
		c.Trials, c.Iterations, c.Rounds = 4, 4, 3
		return c
	})
	if _, err := RunTrackers(empire.Medium(), trackers); err != nil {
		t.Fatal(err)
	}
	return trackers
}

func TestStandardTrackersComposition(t *testing.T) {
	trackers := StandardTrackers(nil)
	if len(trackers) != 6 {
		t.Fatalf("%d trackers, want 6", len(trackers))
	}
	if trackers[0].AMT || trackers[0].Strategy != nil {
		t.Error("first tracker must be the SPMD baseline")
	}
	if !trackers[1].AMT || trackers[1].Strategy != nil {
		t.Error("second tracker must be AMT without LB")
	}
	for _, tr := range trackers[2:] {
		if !tr.AMT || tr.Strategy == nil {
			t.Errorf("%s must be an AMT+LB configuration", tr.Name)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	trackers := runMedium(t)
	byName := map[string]*Tracker{}
	for _, tr := range trackers {
		byName[tr.Name] = tr
	}
	spmd := byName["SPMD (no AMT)"]
	noLB := byName["AMT without LB"]
	grape := byName["AMT w/GrapevineLB"]
	tmp := byName["AMT w/TemperedLB"]
	greedyT := byName["AMT w/GreedyLB"]

	// AMT without LB pays the tasking overhead on particle time.
	wantOverhead := 1 + empire.Medium().AMTOverhead
	if r := noLB.Breakdown.TP / spmd.Breakdown.TP; math.Abs(r-wantOverhead) > 0.02 {
		t.Errorf("AMT overhead ratio %g, want ~%g", r, wantOverhead)
	}
	// Every balancer beats no-LB on particle time; TemperedLB beats
	// GrapevineLB (the paper's headline).
	for _, tr := range []*Tracker{grape, tmp, greedyT} {
		if tr.Breakdown.TP >= noLB.Breakdown.TP {
			t.Errorf("%s did not improve on no-LB: %g vs %g", tr.Name, tr.Breakdown.TP, noLB.Breakdown.TP)
		}
	}
	if tmp.Breakdown.TP >= grape.Breakdown.TP {
		t.Errorf("TemperedLB (%g) did not beat GrapevineLB (%g)",
			tmp.Breakdown.TP, grape.Breakdown.TP)
	}
	// Balancers pay a nonzero LB cost; the baselines pay none.
	if spmd.Breakdown.TLB != 0 || noLB.Breakdown.TLB != 0 {
		t.Error("baselines charged t_lb")
	}
	if tmp.Breakdown.TLB <= 0 || greedyT.Breakdown.TLB <= 0 {
		t.Error("balancers not charged t_lb")
	}
}

// TestTemperedLBCostHighest mirrors Fig. 3's t_lb column: with the
// paper's full 10x8 refinement, TemperedLB is the most expensive
// balancer even though its migration volume is modest.
func TestTemperedLBCostHighest(t *testing.T) {
	trackers := []*Tracker{
		{Name: "greedy", AMT: true, Strategy: greedy.New()},
		{Name: "tempered", AMT: true, Strategy: tempered.NewTempered()},
	}
	if _, err := RunTrackers(empire.Medium(), trackers); err != nil {
		t.Fatal(err)
	}
	if trackers[1].Breakdown.TLB <= trackers[0].Breakdown.TLB {
		t.Errorf("TemperedLB t_lb %g <= GreedyLB %g",
			trackers[1].Breakdown.TLB, trackers[0].Breakdown.TLB)
	}
	if trackers[1].Breakdown.TP >= trackers[0].Breakdown.TP*1.5 {
		t.Errorf("TemperedLB particle time %g should be near GreedyLB's %g",
			trackers[1].Breakdown.TP, trackers[0].Breakdown.TP)
	}
}

func TestBreakdownConsistency(t *testing.T) {
	for _, tr := range runSmall(t) {
		sum := tr.Breakdown.TN + tr.Breakdown.TP + tr.Breakdown.TLB
		if math.Abs(sum-tr.Breakdown.TTotal) > 1e-9 {
			t.Errorf("%s: breakdown sums to %g, total %g", tr.Name, sum, tr.Breakdown.TTotal)
		}
		stepSum := 0.0
		for _, v := range tr.Series.StepTime {
			stepSum += v
		}
		if math.Abs(stepSum-tr.Breakdown.TTotal) > 1e-6 {
			t.Errorf("%s: step series sums to %g, total %g", tr.Name, stepSum, tr.Breakdown.TTotal)
		}
	}
}

func TestSeriesLengthsAndBounds(t *testing.T) {
	cfg := empire.Small()
	for _, tr := range runSmall(t) {
		if len(tr.Series.StepTime) != cfg.Steps || len(tr.Series.Imbalance) != cfg.Steps {
			t.Fatalf("%s: series lengths %d/%d, want %d", tr.Name,
				len(tr.Series.StepTime), len(tr.Series.Imbalance), cfg.Steps)
		}
		for s := range tr.Series.MaxLoad {
			if tr.Series.MaxLoad[s] < tr.Series.MinLoad[s] {
				t.Fatalf("%s step %d: max < min", tr.Name, s)
			}
			if tr.Series.MaxLoad[s] < tr.Series.LowerBound[s]-1e-9 {
				t.Fatalf("%s step %d: max load %g below lower bound %g",
					tr.Name, s, tr.Series.MaxLoad[s], tr.Series.LowerBound[s])
			}
			if tr.Series.Imbalance[s] < 0 {
				t.Fatalf("%s step %d: negative imbalance", tr.Name, s)
			}
		}
	}
}

func TestLBReducesImbalanceSeries(t *testing.T) {
	trackers := runSmall(t)
	var noLB, tmp *Tracker
	for _, tr := range trackers {
		switch tr.Name {
		case "AMT without LB":
			noLB = tr
		case "AMT w/TemperedLB":
			tmp = tr
		}
	}
	// Compare time-averaged imbalance after the first LB step.
	avg := func(xs []float64) float64 {
		sum := 0.0
		for _, x := range xs[10:] {
			sum += x
		}
		return sum / float64(len(xs)-10)
	}
	if avg(tmp.Series.Imbalance) >= avg(noLB.Series.Imbalance)/2 {
		t.Errorf("TemperedLB average I %g vs no-LB %g: too weak",
			avg(tmp.Series.Imbalance), avg(noLB.Series.Imbalance))
	}
}

func TestOrderingTrackers(t *testing.T) {
	trackers := OrderingTrackers(quickTweak)
	if len(trackers) != 3 {
		t.Fatalf("%d ordering trackers", len(trackers))
	}
	if _, err := RunTrackers(empire.Small(), trackers); err != nil {
		t.Fatal(err)
	}
	for _, tr := range trackers {
		if tr.Breakdown.TP <= 0 {
			t.Errorf("%s recorded no particle time", tr.Name)
		}
		if !strings.Contains(tr.Name, "TemperedLB/") {
			t.Errorf("unexpected name %s", tr.Name)
		}
	}
}

func TestLBStatsAccumulate(t *testing.T) {
	cfg := empire.Small()
	tr := &Tracker{Name: "x", AMT: true, Strategy: greedy.New()}
	if _, err := RunTrackers(cfg, []*Tracker{tr}); err != nil {
		t.Fatal(err)
	}
	wantInvocs := 0
	for s := 1; s <= cfg.Steps; s++ {
		if cfg.LBDue(s) {
			wantInvocs++
		}
	}
	if tr.LBStats.Invocations != wantInvocs {
		t.Errorf("invocations %d, want %d", tr.LBStats.Invocations, wantInvocs)
	}
	if tr.LBStats.MovedTasks <= 0 || tr.LBStats.MovedLoad <= 0 {
		t.Errorf("no movement recorded: %+v", tr.LBStats)
	}
}

func TestHierScheduleExtraInvocation(t *testing.T) {
	cfg := empire.Small()
	plain := &Tracker{Name: "plain", AMT: true, Strategy: greedy.New()}
	sched := &Tracker{Name: "sched", AMT: true, Strategy: greedy.New(), HierSchedule: true}
	if _, err := RunTrackers(cfg, []*Tracker{plain, sched}); err != nil {
		t.Fatal(err)
	}
	if sched.LBStats.Invocations != plain.LBStats.Invocations+1 {
		t.Errorf("HierSchedule invocations %d, want %d+1",
			sched.LBStats.Invocations, plain.LBStats.Invocations)
	}
}

func TestCostModelComposition(t *testing.T) {
	cm := CostModel{PerMessage: 1, PerEpoch: 10, PerMovedLoad: 100, Fixed: 5}
	plan := &lb.Plan{Messages: 20, Epochs: 2, MovedLoad: 3}
	got := cm.Invocation(plan, 10)
	want := 5.0 + 10*2 + 1*20/10.0 + 100*3/10.0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Invocation = %g, want %g", got, want)
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	trackers := runSmall(t)
	var b strings.Builder
	RenderFig2(&b, trackers)
	RenderFig3(&b, trackers)
	RenderLBStats(&b, trackers)
	RenderFig4a(&b, trackers, 20)
	RenderFig4b(&b, trackers, 20)
	RenderFig4c(&b, trackers, 20)
	RenderFig4d(&b, trackers, 20)
	out := b.String()
	for _, want := range []string{"Fig. 2", "Fig. 3", "Fig. 4a", "Fig. 4b", "Fig. 4c", "Fig. 4d", "speedup", "t_lb", "moved-load"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q", want)
		}
	}
}

func TestNewExperimentBadConfig(t *testing.T) {
	cfg := empire.Small()
	cfg.Steps = 0
	if _, err := NewExperiment(cfg, DefaultCostModel(), nil); err == nil {
		t.Error("bad config accepted")
	}
}

func TestRebalanceReseedsStrategy(t *testing.T) {
	cfg := empire.Small()
	strat := tempered.New(quickTweak(core.EngineConfig{Config: core.Tempered()}))
	seedBefore := strat.Config().Seed
	tr := &Tracker{Name: "x", AMT: true, Strategy: strat}
	if _, err := RunTrackers(cfg, []*Tracker{tr}); err != nil {
		t.Fatal(err)
	}
	if strat.Config().Seed == seedBefore {
		t.Error("strategy seed never refreshed")
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	trackers := runSmall(t)
	dir := t.TempDir()
	if err := WriteSeriesCSV(dir, trackers); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig4a.csv", "fig4b.csv", "fig4c.csv", "breakdown.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Count(string(data), "\n")
		switch name {
		case "breakdown.csv":
			if lines != len(trackers)+1 {
				t.Errorf("%s has %d lines, want %d", name, lines, len(trackers)+1)
			}
		default:
			if lines != empire.Small().Steps+1 {
				t.Errorf("%s has %d lines, want %d", name, lines, empire.Small().Steps+1)
			}
		}
		if !strings.Contains(string(data), "SPMD (no AMT)") {
			t.Errorf("%s missing config name", name)
		}
	}
}

func TestWriteSeriesCSVNoTrackers(t *testing.T) {
	if err := WriteSeriesCSV(t.TempDir(), nil); err == nil {
		t.Error("expected error with no trackers")
	}
}

func TestPlotsRender(t *testing.T) {
	trackers := runSmall(t)
	var b strings.Builder
	PlotStepTime(&b, trackers, 60, 10)
	PlotImbalance(&b, trackers, 60, 10)
	out := b.String()
	if !strings.Contains(out, "Fig. 4a (ASCII)") || !strings.Contains(out, "Fig. 4c (ASCII)") {
		t.Error("plot titles missing")
	}
	if !strings.Contains(out, "a=SPMD (no AMT)") {
		t.Error("legend missing")
	}
}
