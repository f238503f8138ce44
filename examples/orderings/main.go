// orderings compares the four task traversal orderings of the paper's
// §V-E on the same skewed workload: how many migrations each needs and
// what imbalance it reaches.
//
//	go run ./examples/orderings
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"temperedlb"
)

func buildWorkload(seed int64) *temperedlb.Assignment {
	rng := rand.New(rand.NewSource(seed))
	a := temperedlb.NewAssignment(48)
	// A mixture of many light tasks and a band of heavy ones, clustered
	// on 3 ranks — heavy tasks make the ordering choice matter.
	for i := 0; i < 600; i++ {
		a.Add(0.05+0.3*rng.Float64(), temperedlb.Rank(rng.Intn(3)))
	}
	for i := 0; i < 60; i++ {
		a.Add(1.5+rng.Float64(), temperedlb.Rank(rng.Intn(3)))
	}
	return a
}

func main() {
	seed := flag.Int64("seed", 11, "workload seed")
	flag.Parse()
	orderings := []temperedlb.Ordering{
		temperedlb.OrderArbitrary,
		temperedlb.OrderLoadIntensive,
		temperedlb.OrderFewestMigrations,
		temperedlb.OrderLightest,
	}
	fmt.Printf("%-20s %12s %12s %14s\n", "ordering", "final I", "migrations", "moved load")
	for _, ord := range orderings {
		a := buildWorkload(*seed)
		cfg := temperedlb.EngineConfig{Config: temperedlb.Tempered()}
		cfg.Order = ord
		cfg.Trials, cfg.Iterations = 4, 6
		eng, err := temperedlb.NewEngine(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.Run(a)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-20s %12.3f %12d %14.1f\n",
			ord.String(), res.FinalImbalance, len(res.Moves), res.MovedLoad(a))
	}
	fmt.Println("\nFewest Migrations aims for the fewest moves; Lightest for the")
	fmt.Println("highest acceptance odds; Load-Intensive is the paper's straw-man.")
}
