// amr models the first motivating domain of the paper's introduction:
// adaptive mesh refinement. A shock front sweeps across a patch-based
// mesh; patches near the front refine (their cost multiplies) and
// coarsen again once it passes. The demo advances the simulated phases
// twice — once keeping the naive static mapping, once rebalancing with
// TemperedLB on the interval — and compares the accumulated virtual
// time, illustrating the time-varying imbalance the paper targets.
//
//	go run ./examples/amr
package main

import (
	"fmt"
	"log"
	"math"

	"temperedlb"
)

const (
	patchesX, patchesY = 32, 16 // 512 patches...
	numRanks           = 16     // ...32 per rank
	phases             = 200
	lbEvery            = 10
	baseCost           = 1.0
	refineFactor       = 12.0 // refined patch costs 12x a coarse one
	frontWidth         = 0.08
)

// patchLoad returns the cost of patch (px,py) when the shock front sits
// at position f in [0,1]: patches within frontWidth of the front are
// refined.
func patchLoad(px, py int, f float64) float64 {
	x := (float64(px) + 0.5) / patchesX
	// A slightly slanted front so it crosses rank boundaries unevenly.
	y := (float64(py) + 0.5) / patchesY
	d := math.Abs(x + 0.15*y - f)
	if d < frontWidth {
		return baseCost * refineFactor
	}
	return baseCost
}

// run advances all phases and returns the total virtual time (sum over
// phases of the max per-rank load) plus the number of migrations.
func run(rebalance bool) (total float64, migrations int) {
	a := temperedlb.NewAssignment(numRanks)
	// Static block mapping: contiguous patch columns per rank.
	for py := 0; py < patchesY; py++ {
		for px := 0; px < patchesX; px++ {
			rank := temperedlb.Rank(px * numRanks / patchesX)
			a.Add(baseCost, rank)
		}
	}
	id := func(px, py int) temperedlb.TaskID { return temperedlb.TaskID(py*patchesX + px) }

	for phase := 1; phase <= phases; phase++ {
		// The front sweeps the domain 1.5 times over the run.
		f := 1.5 * float64(phase) / phases
		for py := 0; py < patchesY; py++ {
			for px := 0; px < patchesX; px++ {
				a.SetLoad(id(px, py), patchLoad(px, py, f))
			}
		}
		// Execute the phase: ranks synchronize on the slowest.
		max := 0.0
		for r := 0; r < numRanks; r++ {
			if l := a.RankLoad(temperedlb.Rank(r)); l > max {
				max = l
			}
		}
		total += max

		if rebalance && phase%lbEvery == 0 {
			cfg := temperedlb.EngineConfig{Config: temperedlb.Tempered()}
			cfg.Trials, cfg.Iterations = 4, 4
			cfg.Seed = int64(phase)
			eng, err := temperedlb.NewEngine(cfg)
			if err != nil {
				log.Fatal(err)
			}
			res, err := eng.Run(a)
			if err != nil {
				log.Fatal(err)
			}
			res.Apply(a)
			migrations += len(res.Moves)
		}
	}
	return total, migrations
}

func main() {
	static, _ := run(false)
	balanced, migs := run(true)
	fmt.Printf("AMR shock sweep over %d phases on %d ranks (%d patches)\n",
		phases, numRanks, patchesX*patchesY)
	fmt.Printf("  static mapping:     %8.0f virtual seconds\n", static)
	fmt.Printf("  TemperedLB every %2d: %7.0f virtual seconds (%d patch migrations)\n",
		lbEvery, balanced, migs)
	fmt.Printf("  speedup:            %8.2fx\n", static/balanced)
	if static <= balanced {
		log.Fatal("load balancing should have helped on a moving refinement front")
	}
}
