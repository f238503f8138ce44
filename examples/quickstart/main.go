// Quickstart: build a badly imbalanced overdecomposed workload, run
// TemperedLB, and print the imbalance before and after.
//
//	go run ./examples/quickstart
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"temperedlb"
)

func main() {
	seed := flag.Int64("seed", 7, "workload seed")
	flag.Parse()

	// 1000 tasks with random loads, all crammed onto 4 of 64 ranks —
	// the kind of distribution a freshly partitioned simulation with a
	// localized hot spot produces.
	rng := rand.New(rand.NewSource(*seed))
	a := temperedlb.NewAssignment(64)
	for i := 0; i < 1000; i++ {
		a.Add(0.2+rng.Float64(), temperedlb.Rank(rng.Intn(4)))
	}
	fmt.Printf("initial imbalance I = %.3f\n", a.Imbalance())

	// TemperedLB with the paper's defaults: relaxed criterion, modified
	// CMF, Fewest Migrations ordering, 10 trials x 8 iterations.
	eng, err := temperedlb.NewEngine(temperedlb.EngineConfig{Config: temperedlb.Tempered()})
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Run(a)
	if err != nil {
		log.Fatal(err)
	}
	res.Apply(a)

	fmt.Printf("final   imbalance I = %.3f (best found at trial %d, iteration %d)\n",
		a.Imbalance(), res.BestTrial, res.BestIteration)
	fmt.Printf("moved %d of %d tasks, %.1f load units of migration volume\n",
		len(res.Moves), a.NumTasks(), res.MovedLoad(a))

	// The per-iteration history is the paper's table format: transfers,
	// rejections, and the imbalance trajectory.
	fmt.Println("\ntrial 1 trajectory:")
	for _, it := range res.History {
		if it.Trial != 1 {
			break
		}
		fmt.Printf("  iter %d: %4d transfers, %4d rejected (%.1f%%), I = %.3f\n",
			it.Iteration, it.Transfers, it.Rejected, it.RejectionRate(), it.Imbalance)
	}
}
