package temperedlb_test

import (
	"fmt"

	"temperedlb"
)

// The basic engine flow: build an overdecomposed workload, run the
// balancer, apply the chosen moves.
func ExampleNewEngine() {
	a := temperedlb.NewAssignment(8)
	for i := 0; i < 64; i++ {
		a.Add(1.0, 0) // everything on rank 0
	}
	eng, _ := temperedlb.NewEngine(temperedlb.EngineConfig{Config: temperedlb.Tempered()})
	res, _ := eng.Run(a)
	res.Apply(a)
	fmt.Printf("I: %.0f -> %.0f\n", res.InitialImbalance, res.FinalImbalance)
	// Output: I: 7 -> 0
}

// Strategies share one interface; any of them can drive the same
// workload.
func ExampleStrategy() {
	a := temperedlb.NewAssignment(4)
	for i := 0; i < 16; i++ {
		a.Add(1.0, temperedlb.Rank(i%2)) // two ranks loaded, two idle
	}
	plan, _ := temperedlb.NewGreedyLB().Rebalance(a)
	plan.Apply(a)
	fmt.Printf("I after %s: %.0f\n", "GreedyLB", plan.FinalImbalance)
	// Output: I after GreedyLB: 0
}

// The imbalance metric of the paper (Eq. 1).
func ExampleImbalance() {
	fmt.Printf("%.1f\n", temperedlb.Imbalance([]float64{6, 2, 2, 2}))
	fmt.Printf("%.1f\n", temperedlb.Imbalance([]float64{3, 3, 3, 3}))
	// Output:
	// 1.0
	// 0.0
}

// GrapevineLB is a configuration of the same engine; the paper's
// configurations differ only in Config fields.
func ExampleGrapevine() {
	gv := temperedlb.Grapevine()
	tp := temperedlb.Tempered()
	fmt.Println(gv.Criterion, "vs", tp.Criterion)
	fmt.Println(gv.Order, "vs", tp.Order)
	// Output:
	// original vs relaxed
	// arbitrary vs fewest-migrations
}
