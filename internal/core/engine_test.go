package core

import (
	"math"
	"math/rand"
	"testing"
)

// clusteredAssignment puts n tasks with seeded loads on the first k of p
// ranks — a small-scale version of the paper's §V-B case.
func clusteredAssignment(p, k, n int, seed int64) *Assignment {
	rng := rand.New(rand.NewSource(seed))
	a := NewAssignment(p)
	for i := 0; i < n; i++ {
		a.Add(0.2+rng.Float64(), Rank(rng.Intn(k)))
	}
	return a
}

func smallTempered() EngineConfig {
	cfg := EngineConfig{Config: Tempered()}
	cfg.Trials = 2
	cfg.Iterations = 4
	cfg.Rounds = 5
	cfg.Fanout = 3
	return cfg
}

func TestEngineImprovesImbalance(t *testing.T) {
	a := clusteredAssignment(64, 4, 400, 1)
	eng, err := NewEngine(smallTempered())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.InitialImbalance < 5 {
		t.Fatalf("test workload not imbalanced enough: %g", res.InitialImbalance)
	}
	if res.FinalImbalance >= res.InitialImbalance/2 {
		t.Errorf("engine barely improved: %g -> %g", res.InitialImbalance, res.FinalImbalance)
	}
}

func TestEngineDoesNotModifyInput(t *testing.T) {
	a := clusteredAssignment(32, 2, 100, 2)
	before := a.Owners()
	eng, _ := NewEngine(smallTempered())
	if _, err := eng.Run(a); err != nil {
		t.Fatal(err)
	}
	after := a.Owners()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("Run modified the input assignment")
		}
	}
}

func TestEngineApplyReachesReportedImbalance(t *testing.T) {
	a := clusteredAssignment(32, 2, 200, 3)
	eng, _ := NewEngine(smallTempered())
	res, err := eng.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	res.Apply(a)
	if got := a.Imbalance(); math.Abs(got-res.FinalImbalance) > 1e-9 {
		t.Errorf("applied imbalance %g != reported %g", got, res.FinalImbalance)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineConservesLoad(t *testing.T) {
	a := clusteredAssignment(32, 2, 200, 4)
	total := a.TotalLoad()
	nTasks := a.NumTasks()
	eng, _ := NewEngine(smallTempered())
	res, _ := eng.Run(a)
	res.Apply(a)
	if math.Abs(a.TotalLoad()-total) > 1e-9 {
		t.Errorf("total load changed: %g -> %g", total, a.TotalLoad())
	}
	if a.NumTasks() != nTasks {
		t.Errorf("task count changed: %d -> %d", nTasks, a.NumTasks())
	}
}

func TestEngineDeterministic(t *testing.T) {
	run := func() *Result {
		a := clusteredAssignment(48, 3, 300, 5)
		eng, _ := NewEngine(smallTempered())
		res, _ := eng.Run(a)
		return res
	}
	r1, r2 := run(), run()
	if r1.FinalImbalance != r2.FinalImbalance || len(r1.Moves) != len(r2.Moves) {
		t.Fatalf("non-deterministic: %v vs %v", r1, r2)
	}
	for i := range r1.Moves {
		if r1.Moves[i] != r2.Moves[i] {
			t.Fatalf("move %d differs", i)
		}
	}
	for i := range r1.History {
		// ElapsedSeconds is wall-clock and legitimately varies between
		// runs; everything else must be bit-identical.
		h1, h2 := r1.History[i], r2.History[i]
		if h1.ElapsedSeconds <= 0 || h2.ElapsedSeconds <= 0 {
			t.Errorf("history entry %d missing elapsed time: %g vs %g",
				i, h1.ElapsedSeconds, h2.ElapsedSeconds)
		}
		h1.ElapsedSeconds, h2.ElapsedSeconds = 0, 0
		if h1 != h2 {
			t.Fatalf("history entry %d differs: %+v vs %+v", i, h1, h2)
		}
	}
}

func TestEngineSeedChangesOutcome(t *testing.T) {
	a := clusteredAssignment(48, 3, 300, 6)
	cfg1 := smallTempered()
	cfg2 := smallTempered()
	cfg2.Seed = 999
	e1, _ := NewEngine(cfg1)
	e2, _ := NewEngine(cfg2)
	r1, _ := e1.Run(a)
	r2, _ := e2.Run(a)
	same := len(r1.Moves) == len(r2.Moves)
	if same {
		for i := range r1.Moves {
			if r1.Moves[i] != r2.Moves[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical move sets (suspicious)")
	}
}

func TestEngineNeverWorsensImbalance(t *testing.T) {
	// FinalImbalance is the best over iterations and can never exceed
	// the initial value (the engine keeps the original when nothing
	// improves).
	for seed := int64(0); seed < 10; seed++ {
		a := clusteredAssignment(24, 4, 60, seed)
		eng, _ := NewEngine(smallTempered())
		res, _ := eng.Run(a)
		if res.FinalImbalance > res.InitialImbalance+1e-12 {
			t.Fatalf("seed %d: imbalance worsened %g -> %g", seed, res.InitialImbalance, res.FinalImbalance)
		}
	}
}

func TestEngineEmptyAssignment(t *testing.T) {
	a := NewAssignment(8)
	eng, _ := NewEngine(smallTempered())
	res, err := eng.Run(a)
	if err != nil || len(res.Moves) != 0 {
		t.Errorf("empty run: %v %v", res, err)
	}
}

func TestEngineZeroLoadTasks(t *testing.T) {
	a := NewAssignment(8)
	for i := 0; i < 10; i++ {
		a.Add(0, 0)
	}
	eng, _ := NewEngine(smallTempered())
	res, err := eng.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalImbalance != 0 {
		t.Errorf("zero-load imbalance = %g", res.FinalImbalance)
	}
}

func TestEngineBalancedInputNoMoves(t *testing.T) {
	a := NewAssignment(4)
	for r := 0; r < 4; r++ {
		a.Add(1, Rank(r))
	}
	eng, _ := NewEngine(smallTempered())
	res, _ := eng.Run(a)
	if len(res.Moves) != 0 {
		t.Errorf("balanced input produced %d moves", len(res.Moves))
	}
	if res.FinalImbalance != res.InitialImbalance {
		t.Errorf("imbalance changed on balanced input")
	}
}

func TestEngineHistoryShape(t *testing.T) {
	cfg := smallTempered()
	a := clusteredAssignment(32, 2, 100, 7)
	eng, _ := NewEngine(cfg)
	res, _ := eng.Run(a)
	if len(res.History) != cfg.Trials*cfg.Iterations {
		t.Fatalf("history length %d, want %d", len(res.History), cfg.Trials*cfg.Iterations)
	}
	idx := 0
	for trial := 1; trial <= cfg.Trials; trial++ {
		for iter := 1; iter <= cfg.Iterations; iter++ {
			h := res.History[idx]
			if h.Trial != trial || h.Iteration != iter {
				t.Fatalf("history[%d] = trial %d iter %d", idx, h.Trial, h.Iteration)
			}
			idx++
		}
	}
}

func TestEngineGrapevineVsTemperedQuality(t *testing.T) {
	// The paper's core claim at small scale: the relaxed criterion with
	// refinement beats the original configuration on a clustered
	// workload with heavy tasks present.
	a := NewAssignment(64)
	rng := rand.New(rand.NewSource(8))
	// Mixture: light plus heavy-above-average tasks on 4 ranks.
	for i := 0; i < 300; i++ {
		a.Add(0.1+0.4*rng.Float64(), Rank(rng.Intn(4)))
	}
	for i := 0; i < 40; i++ {
		a.Add(2.0+rng.Float64(), Rank(rng.Intn(4)))
	}

	gv := EngineConfig{Config: Grapevine()}
	gv.Iterations = 8
	gvEng, _ := NewEngine(gv)
	gvRes, _ := gvEng.Run(a)

	tp := EngineConfig{Config: Tempered()}
	tp.Trials = 2
	tp.Iterations = 8
	tpEng, _ := NewEngine(tp)
	tpRes, _ := tpEng.Run(a)

	if tpRes.FinalImbalance >= gvRes.FinalImbalance {
		t.Errorf("TemperedLB (%g) did not beat GrapevineLB (%g)",
			tpRes.FinalImbalance, gvRes.FinalImbalance)
	}
}

func TestEngineRejectionRateStats(t *testing.T) {
	s := IterationStats{Transfers: 1, Rejected: 3}
	if got := s.RejectionRate(); math.Abs(got-75) > 1e-12 {
		t.Errorf("RejectionRate = %g, want 75", got)
	}
	if got := (IterationStats{}).RejectionRate(); got != 0 {
		t.Errorf("empty RejectionRate = %g", got)
	}
}

func TestEngineMovedLoad(t *testing.T) {
	a := clusteredAssignment(16, 2, 50, 9)
	eng, _ := NewEngine(smallTempered())
	res, _ := eng.Run(a)
	want := 0.0
	for _, m := range res.Moves {
		want += a.Load(m.Task)
	}
	if got := res.MovedLoad(a); math.Abs(got-want) > 1e-9 {
		t.Errorf("MovedLoad = %g, want %g", got, want)
	}
}

func TestNewEngineRejectsBadConfig(t *testing.T) {
	cfg := EngineConfig{Config: Tempered()}
	cfg.Fanout = 0
	if _, err := NewEngine(cfg); err == nil {
		t.Error("NewEngine accepted invalid config")
	}
}

func TestDeriveSeedStreamsIndependent(t *testing.T) {
	seen := map[int64]bool{}
	for i := int64(0); i < 100; i++ {
		s := deriveSeed(1, i)
		if seen[s] {
			t.Fatalf("seed collision at stream %d", i)
		}
		seen[s] = true
	}
	if deriveSeed(1, 2, 3) == deriveSeed(1, 3, 2) {
		t.Error("stream order should matter")
	}
}

func TestEngineKnowledgeStats(t *testing.T) {
	a := clusteredAssignment(64, 4, 300, 11)
	cfg := smallTempered()
	eng, _ := NewEngine(cfg)
	res, err := eng.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	// The first iteration has overloaded ranks whose knowledge must be
	// nonempty (gossip ran) and bounded by the rank count.
	first := res.History[0]
	if first.KnowledgeAvg <= 0 {
		t.Errorf("KnowledgeAvg = %g on an imbalanced workload", first.KnowledgeAvg)
	}
	if first.KnowledgeMin < 0 || first.KnowledgeAvg > float64(a.NumRanks()) {
		t.Errorf("knowledge stats out of range: min=%d avg=%g", first.KnowledgeMin, first.KnowledgeAvg)
	}
	if float64(first.KnowledgeMin) > first.KnowledgeAvg {
		t.Errorf("min %d exceeds avg %g", first.KnowledgeMin, first.KnowledgeAvg)
	}
}

func TestEngineKnowledgeCappedByLimitedInfo(t *testing.T) {
	run := func(cap int) float64 {
		a := clusteredAssignment(64, 4, 300, 12)
		cfg := smallTempered()
		cfg.MaxGossipEntries = cap
		eng, _ := NewEngine(cfg)
		res, _ := eng.Run(a)
		return res.History[0].KnowledgeAvg
	}
	if capped, full := run(3), run(0); capped >= full {
		t.Errorf("payload cap did not shrink knowledge: %g vs %g", capped, full)
	}
}
