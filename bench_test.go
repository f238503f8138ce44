// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations over the design choices called out in
// DESIGN.md. Each benchmark runs a scaled configuration sized to finish
// in well under a second per iteration; the cmd/lbaf and cmd/empire
// binaries run the same experiments at full paper scale (2^12 ranks /
// 400 ranks respectively) and are what EXPERIMENTS.md records.
package temperedlb_test

import (
	"fmt"
	"io"
	"testing"

	"temperedlb"
	"temperedlb/internal/core"
	"temperedlb/internal/empire"
	"temperedlb/internal/lb/tempered"
	"temperedlb/internal/lbaf"
	"temperedlb/internal/sim"
	"temperedlb/internal/workload"
)

// benchVBSpec is the §V-B case scaled 8x down (512 of 4096 ranks kept,
// proportional tasks) so one iteration table fits in a benchmark op.
func benchVBSpec() workload.Spec {
	s := workload.VBCase(1)
	s.NumRanks = 512
	s.LoadedRanks = 8
	s.NumTasks = 1500
	return s
}

func benchLBAFConfig() core.Config {
	cfg := core.Grapevine()
	cfg.Iterations = 6
	cfg.Rounds = 6
	cfg.Fanout = 4
	cfg.Passes = 0 // LBAF-style retries, as in the paper's accounting
	return cfg
}

// BenchmarkTableVB regenerates the §V-B iteration table (original
// criterion: transfers, rejections, rejection rate, imbalance).
func BenchmarkTableVB(b *testing.B) {
	spec, cfg := benchVBSpec(), benchLBAFConfig()
	for i := 0; i < b.N; i++ {
		t, err := lbaf.RunIterationTable("§V-B", spec, cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := t.Rows[len(t.Rows)-1]
		b.ReportMetric(last.Imbalance, "final-I")
		b.ReportMetric(last.RejectionRate, "final-rej-%")
	}
}

// BenchmarkTableVD regenerates the §V-D iteration table (relaxed
// criterion on the identical case).
func BenchmarkTableVD(b *testing.B) {
	spec := benchVBSpec()
	cfg := benchLBAFConfig()
	cfg.Criterion = core.CriterionRelaxed
	cfg.CMF = core.CMFModified
	cfg.RecomputeCMF = true
	for i := 0; i < b.N; i++ {
		t, err := lbaf.RunIterationTable("§V-D", spec, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Rows[len(t.Rows)-1].Imbalance, "final-I")
	}
}

// BenchmarkTableCompare regenerates the §V-D side-by-side comparison of
// criterion 35 vs criterion 37.
func BenchmarkTableCompare(b *testing.B) {
	spec, cfg := benchVBSpec(), benchLBAFConfig()
	for i := 0; i < b.N; i++ {
		c, err := lbaf.RunComparison(spec, core.EngineConfig{Config: cfg})
		if err != nil {
			b.Fatal(err)
		}
		o := c.Original.Rows[len(c.Original.Rows)-1].Imbalance
		r := c.Relaxed.Rows[len(c.Relaxed.Rows)-1].Imbalance
		b.ReportMetric(o/r, "I-ratio-orig/relaxed")
	}
}

// benchEmpire runs the EMPIRE-like experiment at the Medium scale (64
// ranks, 300 steps) with a reduced refinement budget.
func benchEmpire(b *testing.B, trackers []*sim.Tracker) {
	b.Helper()
	if _, err := sim.RunTrackers(empire.Medium(), trackers); err != nil {
		b.Fatal(err)
	}
}

func quickTweak(c core.EngineConfig) core.EngineConfig {
	c.Trials, c.Iterations, c.Rounds = 4, 4, 3
	return c
}

// BenchmarkFig2 regenerates the overall performance comparison: the
// five configurations' particle/non-particle totals and speedups.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		trackers := sim.StandardTrackers(quickTweak)
		benchEmpire(b, trackers)
		spmd, tmp := trackers[0], trackers[5]
		b.ReportMetric(spmd.Breakdown.TP/tmp.Breakdown.TP, "particle-speedup")
		b.ReportMetric(spmd.Breakdown.TTotal/tmp.Breakdown.TTotal, "overall-speedup")
	}
}

// BenchmarkFig3 regenerates the t_n/t_p/t_lb/t_total breakdown table.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		trackers := sim.StandardTrackers(quickTweak)
		benchEmpire(b, trackers)
		sim.RenderFig3(io.Discard, trackers)
		b.ReportMetric(trackers[5].Breakdown.TLB, "tempered-t_lb")
	}
}

// BenchmarkFig4a regenerates the per-timestep full-step time series.
func BenchmarkFig4a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		trackers := sim.StandardTrackers(quickTweak)
		benchEmpire(b, trackers)
		sim.RenderFig4a(io.Discard, trackers, 10)
	}
}

// BenchmarkFig4b regenerates the per-rank task load extrema and lower
// bound series.
func BenchmarkFig4b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		trackers := sim.StandardTrackers(quickTweak)
		benchEmpire(b, trackers)
		sim.RenderFig4b(io.Discard, trackers, 10)
		tmp := trackers[5]
		last := len(tmp.Series.MaxLoad) - 1
		b.ReportMetric(tmp.Series.MaxLoad[last]/tmp.Series.LowerBound[last], "max/lower-bound")
	}
}

// BenchmarkFig4c regenerates the imbalance-over-time series.
func BenchmarkFig4c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		trackers := sim.StandardTrackers(quickTweak)
		benchEmpire(b, trackers)
		sim.RenderFig4c(io.Discard, trackers, 10)
		noLB, tmp := trackers[1], trackers[5]
		mid := len(noLB.Series.Imbalance) / 2
		b.ReportMetric(noLB.Series.Imbalance[mid], "noLB-mid-I")
		b.ReportMetric(tmp.Series.Imbalance[mid], "tempered-mid-I")
	}
}

// BenchmarkFig4d regenerates the traversal-ordering comparison.
func BenchmarkFig4d(b *testing.B) {
	for i := 0; i < b.N; i++ {
		trackers := sim.OrderingTrackers(quickTweak)
		benchEmpire(b, trackers)
		sim.RenderFig4d(io.Discard, trackers, 10)
		b.ReportMetric(trackers[1].Breakdown.TP, "fewest-migrations-t_p")
	}
}

// BenchmarkAblationRecompute isolates proposed change #3: rebuilding the
// CMF inside the transfer loop versus building it once.
func BenchmarkAblationRecompute(b *testing.B) {
	spec := benchVBSpec()
	for _, recompute := range []bool{false, true} {
		b.Run(fmt.Sprintf("recompute=%v", recompute), func(b *testing.B) {
			cfg := benchLBAFConfig()
			cfg.Criterion = core.CriterionRelaxed
			cfg.CMF = core.CMFModified
			cfg.RecomputeCMF = recompute
			for i := 0; i < b.N; i++ {
				t, err := lbaf.RunIterationTable("ablation", spec, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(t.Rows[len(t.Rows)-1].Imbalance, "final-I")
			}
		})
	}
}

// BenchmarkAblationTrials sweeps the refinement budget (changes #1/#2):
// trials x iterations from the single-shot original to the paper's 10x8.
func BenchmarkAblationTrials(b *testing.B) {
	a, err := workload.Generate(benchVBSpec())
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct{ trials, iters int }{{1, 1}, {1, 4}, {4, 4}, {10, 8}} {
		b.Run(fmt.Sprintf("trials=%d/iters=%d", tc.trials, tc.iters), func(b *testing.B) {
			cfg := core.EngineConfig{Config: core.Tempered()}
			cfg.Trials, cfg.Iterations = tc.trials, tc.iters
			cfg.Rounds, cfg.Fanout = 6, 4
			eng, err := core.NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				res, err := eng.Run(a)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.FinalImbalance, "final-I")
			}
		})
	}
}

// BenchmarkAblationGossip sweeps the gossip fanout and round count
// (footnote 2's information/volume trade-off).
func BenchmarkAblationGossip(b *testing.B) {
	a, err := workload.Generate(benchVBSpec())
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct{ f, k int }{{2, 2}, {2, 6}, {4, 4}, {6, 10}} {
		b.Run(fmt.Sprintf("f=%d/k=%d", tc.f, tc.k), func(b *testing.B) {
			cfg := core.EngineConfig{Config: core.Tempered()}
			cfg.Trials, cfg.Iterations = 2, 4
			cfg.Fanout, cfg.Rounds = tc.f, tc.k
			eng, err := core.NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				res, err := eng.Run(a)
				if err != nil {
					b.Fatal(err)
				}
				msgs := 0
				for _, it := range res.History {
					msgs += it.GossipMessages
				}
				b.ReportMetric(float64(msgs), "gossip-msgs")
				b.ReportMetric(res.FinalImbalance, "final-I")
			}
		})
	}
}

// BenchmarkAblationLimitedInfo caps the gossip payload size (footnote
// 2's future work) and reports the quality/volume trade-off.
func BenchmarkAblationLimitedInfo(b *testing.B) {
	a, err := workload.Generate(benchVBSpec())
	if err != nil {
		b.Fatal(err)
	}
	for _, cap := range []int{0, 32, 8, 2} {
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			cfg := core.EngineConfig{Config: core.Tempered()}
			cfg.Trials, cfg.Iterations = 2, 4
			cfg.Rounds, cfg.Fanout = 6, 4
			cfg.MaxGossipEntries = cap
			eng, err := core.NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				res, err := eng.Run(a)
				if err != nil {
					b.Fatal(err)
				}
				entries := 0
				for _, it := range res.History {
					entries += it.GossipEntries
				}
				b.ReportMetric(float64(entries), "payload-entries")
				b.ReportMetric(res.FinalImbalance, "final-I")
			}
		})
	}
}

// BenchmarkAblationLBFrequency sweeps the rebalancing interval on the
// EMPIRE-like run — the §IV-A trade-off between the cost of running the
// balancer and the staleness of the distribution it leaves behind.
func BenchmarkAblationLBFrequency(b *testing.B) {
	for _, period := range []int{10, 25, 50, 100, 300} {
		b.Run(fmt.Sprintf("period=%d", period), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := empire.Medium()
				cfg.LBPeriod = period
				tr := &sim.Tracker{
					Name: "tempered", AMT: true,
					Strategy: temperedlb.NewTemperedLBWith(quickTweak(core.EngineConfig{Config: core.Tempered()})),
				}
				if _, err := sim.RunTrackers(cfg, []*sim.Tracker{tr}); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(tr.Breakdown.TTotal, "t_total")
				b.ReportMetric(tr.Breakdown.TLB, "t_lb")
			}
		})
	}
}

// BenchmarkPersistenceSensitivity quantifies the principle of
// persistence (§III-B): every LB decision is computed from the finished
// phase's loads; as phase-to-phase correlation rho drops, the stale
// decision decays and efficiency falls toward the static mapping's.
func BenchmarkPersistenceSensitivity(b *testing.B) {
	spec := workload.Spec{
		NumRanks: 24, NumTasks: 360,
		Placement: workload.PlaceClustered, LoadedRanks: 3,
		Loads: workload.LoadUniform, Seed: 1,
	}
	for _, rho := range []float64{1.0, 0.95, 0.8, 0.5, 0.0} {
		b.Run(fmt.Sprintf("rho=%.2f", rho), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := workload.Generate(spec)
				if err != nil {
					b.Fatal(err)
				}
				ev, err := workload.NewEvolver(a, rho, 0.4, 2)
				if err != nil {
					b.Fatal(err)
				}
				cfg := core.EngineConfig{Config: core.Tempered()}
				cfg.Trials, cfg.Iterations = 2, 4
				cfg.Rounds, cfg.Fanout = 4, 3
				res, err := lbaf.RunPhaseStudy(a, ev, tempered.New(cfg), 60, 5)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Efficiency(), "efficiency")
				b.ReportMetric(res.Speedup(), "speedup-vs-static")
			}
		})
	}
}

// BenchmarkOrderingsMicro measures the pure ordering computations of
// Algorithms 4-6 on a 10k-task list.
func BenchmarkOrderingsMicro(b *testing.B) {
	tasks := make([]core.Task, 10_000)
	for i := range tasks {
		tasks[i] = core.Task{ID: core.TaskID(i), Load: float64((i*2654435761)%1000) / 100}
	}
	total := 0.0
	for _, task := range tasks {
		total += task.Load
	}
	ave := total / 400
	for _, ord := range []core.Ordering{core.OrderArbitrary, core.OrderLoadIntensive, core.OrderFewestMigrations, core.OrderLightest} {
		b.Run(ord.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.OrderTasks(tasks, ave, total, ord)
			}
		})
	}
}

// BenchmarkStrategies compares one full rebalance of each strategy on
// the same skewed workload.
func BenchmarkStrategies(b *testing.B) {
	spec := workload.Spec{
		NumRanks: 128, NumTasks: 3000,
		Placement: workload.PlaceClustered, LoadedRanks: 8,
		Loads: workload.LoadMixture, HeavyFraction: 0.2, Seed: 1,
	}
	a, err := workload.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	strategies := []temperedlb.Strategy{
		temperedlb.NewGreedyLB(),
		temperedlb.NewHierLB(4),
		temperedlb.NewGrapevineLB(),
		temperedlb.NewTemperedLB(),
	}
	for _, s := range strategies {
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan, err := s.Rebalance(a)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(plan.FinalImbalance, "final-I")
			}
		})
	}
}

// BenchmarkDistributedLB measures the fully distributed protocol on the
// real AMT runtime (goroutine ranks, live termination detection).
func BenchmarkDistributedLB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rt := temperedlb.NewRuntime(16)
		h := temperedlb.RegisterLBHandlers(rt, 1)
		rt.Run(func(rc *temperedlb.RankContext) {
			loads := map[temperedlb.ObjectID]float64{}
			if rc.Rank() < 2 {
				for j := 0; j < 64; j++ {
					id := rc.CreateObject(j)
					loads[id] = 0.5 + float64(j%7)/7
				}
			}
			rc.Barrier()
			cfg := temperedlb.Tempered()
			cfg.Trials, cfg.Iterations, cfg.Rounds = 2, 3, 4
			if _, err := temperedlb.RunDistributedLB(rc, h, cfg, loads); err != nil {
				b.Error(err)
			}
		})
	}
}

// BenchmarkEngineScaling measures one full TemperedLB invocation as the
// rank count grows with constant tasks-per-overloaded-rank, the
// scalability axis of §IV.
func BenchmarkEngineScaling(b *testing.B) {
	for _, p := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("ranks=%d", p), func(b *testing.B) {
			spec := workload.VBCase(1)
			spec.NumRanks = p
			spec.LoadedRanks = p / 64
			spec.NumTasks = p * 4
			a, err := workload.Generate(spec)
			if err != nil {
				b.Fatal(err)
			}
			cfg := core.EngineConfig{Config: core.Tempered()}
			cfg.Trials, cfg.Iterations = 1, 2
			cfg.Rounds = 3
			eng, err := core.NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.Run(a)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.FinalImbalance, "final-I")
			}
		})
	}
}

// BenchmarkDistributedScaling measures a full distributed LB invocation
// on the real runtime (goroutine ranks, live termination detection) as
// the rank count grows, up to the paper's §V-B scale of 4096 ranks.
func BenchmarkDistributedScaling(b *testing.B) {
	for _, n := range []int{8, 32, 128, 512, 1024, 4096} {
		b.Run(fmt.Sprintf("ranks=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rt := temperedlb.NewRuntime(n)
				h := temperedlb.RegisterLBHandlers(rt, 1)
				rt.Run(func(rc *temperedlb.RankContext) {
					loads := map[temperedlb.ObjectID]float64{}
					if int(rc.Rank()) < n/8 {
						for j := 0; j < 48; j++ {
							id := rc.CreateObject(j)
							loads[id] = 0.5 + float64(j%7)/7
						}
					}
					rc.Barrier()
					cfg := temperedlb.Tempered()
					cfg.Trials, cfg.Iterations, cfg.Rounds = 2, 3, 3
					if _, err := temperedlb.RunDistributedLB(rc, h, cfg, loads); err != nil {
						b.Error(err)
					}
				})
			}
		})
	}
}

// BenchmarkPaperCase is one op of the benchmark's paper_vb_4096_mem
// workload (bench/, workload A): the §V-B case — 10^4 tasks on 16 of 4096
// ranks, f = 6, k = 10 — through 4 trials × 4 iterations of the
// distributed protocol, on a fresh runtime per op. It exists to be
// profiled (`make profile BENCH=PaperCase`): bench/ is a frozen main
// package with no profile flag. ≈ 4 s and 0.9 GB allocated per op (2 cores).
func BenchmarkPaperCase(b *testing.B) {
	a, err := workload.Generate(workload.VBCase(1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := temperedlb.Tempered()
	cfg.Trials, cfg.Iterations = 4, 4
	imb := 0.0
	for i := 0; i < b.N; i++ {
		rt := temperedlb.NewRuntime(a.NumRanks())
		h := temperedlb.RegisterLBHandlers(rt, 1)
		rt.Run(func(rc *temperedlb.RankContext) {
			loads := map[temperedlb.ObjectID]float64{}
			for _, task := range a.TasksOf(rc.Rank()) {
				loads[rc.CreateObject(task.Load)] = task.Load
			}
			rc.Barrier()
			res, err := temperedlb.RunDistributedLB(rc, h, cfg, loads)
			if err != nil {
				b.Error(err)
			}
			if rc.Rank() == 0 {
				imb = res.FinalImbalance
			}
		})
	}
	b.ReportMetric(imb, "final-I")
}
