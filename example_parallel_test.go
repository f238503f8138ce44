package temperedlb_test

import (
	"fmt"
	"strings"

	"temperedlb"
)

// A sweep fans a grid of configurations over one workload across every
// CPU; its output is byte-identical run to run because every
// configuration owns its seeded random streams.
func ExampleRunSweep() {
	spec := temperedlb.VBWorkload(1)
	spec.NumRanks, spec.LoadedRanks, spec.NumTasks = 64, 4, 500
	base := temperedlb.EngineConfig{Config: temperedlb.Tempered()}
	base.Trials, base.Iterations = 2, 3
	configs := temperedlb.GossipSweepConfigs(base, []int{2, 4}, []int{2, 4})

	first, _ := temperedlb.RunSweep("fanout/rounds", spec, configs)
	second, _ := temperedlb.RunSweep("fanout/rounds", spec, configs)

	var a, b strings.Builder
	first.Render(&a)
	second.Render(&b)
	fmt.Printf("%d points, identical: %v\n", len(configs), a.String() == b.String())
	// Output: 4 points, identical: true
}

// The distributed balancer runs the same decision logic as real active
// messages on the AMT runtime: register the handlers, then call it
// collectively from every rank with that rank's local object loads.
func ExampleRunDistributedLB() {
	rt := temperedlb.NewRuntime(4)
	lbh := temperedlb.RegisterLBHandlers(rt, 20)
	var improved bool
	rt.Run(func(rc *temperedlb.RankContext) {
		loads := map[temperedlb.ObjectID]float64{}
		if rc.Rank() == 0 { // all work starts on one rank
			for i := 0; i < 32; i++ {
				loads[rc.CreateObject(i)] = 1
			}
		}
		rc.Barrier()
		cfg := temperedlb.Tempered()
		cfg.Trials, cfg.Iterations, cfg.Rounds = 2, 3, 3
		res, err := temperedlb.RunDistributedLB(rc, lbh, cfg, loads)
		if err != nil {
			panic(err)
		}
		if rc.Rank() == 0 {
			improved = res.FinalImbalance < res.InitialImbalance
		}
	})
	fmt.Println("improved:", improved)
	// Output: improved: true
}

// Hook a trace recorder into the synchronous engine via EngineConfig.Tracer:
// each run emits an lb.run span plus one lb.iteration span per
// refinement iteration.
func ExampleNewTraceRecorder() {
	rec := temperedlb.NewTraceRecorder()
	cfg := temperedlb.EngineConfig{Config: temperedlb.Tempered()}
	cfg.Trials, cfg.Iterations = 1, 4
	cfg.Tracer = rec

	a := temperedlb.NewAssignment(8)
	for i := 0; i < 64; i++ {
		a.Add(1.0, 0)
	}
	eng, _ := temperedlb.NewEngine(cfg)
	if _, err := eng.Run(a); err != nil {
		panic(err)
	}
	// 2 events bracket the run; each iteration adds a begin/end pair.
	fmt.Println("events:", rec.Len())
	// Output: events: 10
}
