// commaware demonstrates the communication-aware extension the paper's
// conclusion names as future work: balancing a workload of communicating
// task cliques with and without the affinity bias, and comparing the
// cross-rank communication volume each leaves behind.
//
//	go run ./examples/commaware
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"temperedlb"
)

// Build 40 cliques of 6 tasks each; tasks inside a clique exchange halo
// data every phase (think: neighboring mesh chunks). Everything starts
// on 3 of 32 ranks.
func buildWorkload(seed int64) (*temperedlb.Assignment, *temperedlb.CommGraph) {
	rng := rand.New(rand.NewSource(seed))
	const cliques, size = 40, 6
	a := temperedlb.NewAssignment(32)
	g := temperedlb.NewCommGraph(cliques * size)
	for c := 0; c < cliques; c++ {
		ids := make([]temperedlb.TaskID, size)
		for i := range ids {
			ids[i] = a.Add(0.3+rng.Float64(), temperedlb.Rank(rng.Intn(3)))
		}
		// Ring topology inside the clique, like ghost exchanges.
		for i := range ids {
			g.Connect(ids[i], ids[(i+1)%size], 2.0)
		}
	}
	return a, g
}

func main() {
	seed := flag.Int64("seed", 17, "workload seed")
	flag.Parse()
	fmt.Printf("%-10s %10s %14s %16s\n", "bias", "final I", "remote volume", "volume fraction")
	for _, bias := range []float64{0, 0.3, 0.6, 0.9} {
		a, g := buildWorkload(*seed)
		cfg := temperedlb.EngineConfig{Config: temperedlb.Tempered()}
		cfg.Trials, cfg.Iterations = 4, 6
		cfg.CommBias = bias
		eng, err := temperedlb.NewEngine(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.RunWithComm(a, g)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10.1f %10.3f %14.1f %15.1f%%\n",
			bias, res.FinalImbalance, res.RemoteVolumeAfter,
			100*res.RemoteVolumeAfter/g.TotalVolume())
	}
	fmt.Println("\nHigher bias keeps cliques together (less remote traffic) at a")
	fmt.Println("small cost in load balance — the locality/balance trade-off the")
	fmt.Println("paper's future work targets.")
}
