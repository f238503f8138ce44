// customstrategy shows the Strategy extension point: a user-defined
// balancer (a naive round-robin scatter) plugged into the same harness
// as the built-in ones, compared on quality and migration volume.
//
//	go run ./examples/customstrategy
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"temperedlb"
)

// roundRobin scatters every task over the ranks in task order. Perfectly
// scalable, oblivious to loads — a useful foil for real balancers.
type roundRobin struct{}

func (roundRobin) Name() string { return "RoundRobin" }

func (roundRobin) Rebalance(a *temperedlb.Assignment) (*temperedlb.Plan, error) {
	plan := &temperedlb.Plan{InitialImbalance: a.Imbalance(), Epochs: 1}
	loads := make([]float64, a.NumRanks())
	for id := 0; id < a.NumTasks(); id++ {
		tid := temperedlb.TaskID(id)
		to := temperedlb.Rank(id % a.NumRanks())
		loads[to] += a.Load(tid)
		if a.Owner(tid) != to {
			plan.Moves = append(plan.Moves, temperedlb.Move{Task: tid, From: a.Owner(tid), To: to})
			plan.MovedLoad += a.Load(tid)
		}
	}
	plan.FinalImbalance = temperedlb.Imbalance(loads)
	return plan, nil
}

func buildWorkload(seed int64) *temperedlb.Assignment {
	rng := rand.New(rand.NewSource(seed))
	a := temperedlb.NewAssignment(32)
	for i := 0; i < 500; i++ {
		// Pareto-ish loads: a few elephants, many mice.
		load := 0.1 / (0.05 + rng.Float64())
		a.Add(load, temperedlb.Rank(rng.Intn(4)))
	}
	return a
}

func main() {
	seed := flag.Int64("seed", 3, "workload seed")
	flag.Parse()
	strategies := []temperedlb.Strategy{
		roundRobin{},
		temperedlb.NewGreedyLB(),
		temperedlb.NewHierLB(4),
		temperedlb.NewGrapevineLB(),
		temperedlb.NewTemperedLB(),
	}
	fmt.Printf("%-14s %10s %10s %12s %14s\n", "strategy", "I before", "I after", "migrations", "moved load")
	for _, s := range strategies {
		a := buildWorkload(*seed)
		plan, err := s.Rebalance(a)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %10.3f %10.3f %12d %14.1f\n",
			s.Name(), plan.InitialImbalance, plan.FinalImbalance,
			plan.MovedTasks(), plan.MovedLoad)
	}
	fmt.Println("\nRound-robin ignores loads entirely; note its migration volume —")
	fmt.Println("it moves nearly everything every time, where TemperedLB moves only")
	fmt.Println("what the imbalance requires.")
}
