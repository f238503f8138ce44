package tempered

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"temperedlb/internal/amt"
	"temperedlb/internal/comm"
	"temperedlb/internal/core"
)

// colorState is the payload of a migratable test object.
type colorState struct {
	Load float64
	Blob [64]byte
}

func distConfig() core.Config {
	cfg := core.Tempered()
	cfg.Trials = 2
	cfg.Iterations = 3
	cfg.Rounds = 4
	cfg.Fanout = 3
	return cfg
}

// runDistributed stands up a runtime where the first hot ranks hold all
// the objects, runs the distributed balancer, and returns per-rank
// results plus the final object census.
func runDistributedCase(t *testing.T, nRanks, hot, objsPerHot int, cfg core.Config) ([]DistResult, map[core.Rank]int, float64) {
	t.Helper()
	rt := amt.New(nRanks)
	h := RegisterHandlers(rt, 100)
	results := make([]DistResult, nRanks)
	census := make(map[core.Rank]int)
	finalLoads := make([]float64, nRanks)
	var mu sync.Mutex

	rt.Run(func(rc *amt.Context) {
		rng := rand.New(rand.NewSource(int64(rc.Rank()) + 7))
		loads := make(map[amt.ObjectID]float64)
		if int(rc.Rank()) < hot {
			for i := 0; i < objsPerHot; i++ {
				l := 0.2 + rng.Float64()
				id := rc.CreateObject(&colorState{Load: l})
				loads[id] = l
			}
		}
		rc.Barrier()
		res, err := RunDistributed(rc, h, cfg, loads)
		if err != nil {
			t.Errorf("rank %d: %v", rc.Rank(), err)
			return
		}
		results[rc.Rank()] = res
		rc.Barrier()
		mu.Lock()
		census[rc.Rank()] = len(rc.LocalObjects())
		sum := 0.0
		for _, id := range rc.LocalObjects() {
			s, _ := rc.ObjectState(id)
			sum += s.(*colorState).Load
		}
		finalLoads[rc.Rank()] = sum
		mu.Unlock()
	})

	max, total := 0.0, 0.0
	for _, l := range finalLoads {
		if l > max {
			max = l
		}
		total += l
	}
	actualI := 0.0
	if total > 0 {
		actualI = max/(total/float64(nRanks)) - 1
	}
	return results, census, actualI
}

func TestDistributedImprovesAndMigrates(t *testing.T) {
	results, census, actualI := runDistributedCase(t, 12, 2, 40, distConfig())
	res := results[0]
	if res.InitialImbalance < 3 {
		t.Fatalf("initial I only %g", res.InitialImbalance)
	}
	if res.FinalImbalance >= res.InitialImbalance/3 {
		t.Errorf("weak improvement: %g -> %g", res.InitialImbalance, res.FinalImbalance)
	}
	// All ranks must agree on the imbalance trajectory.
	for r := 1; r < len(results); r++ {
		if results[r].FinalImbalance != res.FinalImbalance ||
			results[r].BestTrial != res.BestTrial ||
			results[r].BestIteration != res.BestIteration {
			t.Errorf("rank %d disagrees: %+v vs %+v", r, results[r], res)
		}
	}
	// No object lost or duplicated.
	totalObjs := 0
	for _, c := range census {
		totalObjs += c
	}
	if totalObjs != 80 {
		t.Errorf("object census %d, want 80", totalObjs)
	}
	// The committed physical distribution realizes the reported best I.
	if diff := actualI - res.FinalImbalance; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("physical I %g != reported best %g", actualI, res.FinalImbalance)
	}
}

func TestDistributedMigrationAccounting(t *testing.T) {
	results, _, _ := runDistributedCase(t, 8, 1, 32, distConfig())
	totalMigs := 0
	for _, r := range results {
		totalMigs += r.Migrations
		if r.Migrations > 0 && r.MigrationBytes <= 0 {
			t.Error("migrations without bytes")
		}
	}
	if totalMigs == 0 {
		t.Error("no migrations executed on a fully clustered workload")
	}
}

func TestDistributedBalancedInputNoMigrations(t *testing.T) {
	rt := amt.New(4)
	h := RegisterHandlers(rt, 100)
	var mu sync.Mutex
	totalMigs := 0
	rt.Run(func(rc *amt.Context) {
		loads := map[amt.ObjectID]float64{}
		id := rc.CreateObject(&colorState{Load: 1})
		loads[id] = 1
		rc.Barrier()
		res, err := RunDistributed(rc, h, distConfig(), loads)
		if err != nil {
			t.Error(err)
			return
		}
		if res.InitialImbalance != 0 {
			t.Errorf("balanced input I0 = %g", res.InitialImbalance)
		}
		mu.Lock()
		totalMigs += res.Migrations
		mu.Unlock()
	})
	if totalMigs != 0 {
		t.Errorf("balanced input migrated %d objects", totalMigs)
	}
}

func TestDistributedEmptySystem(t *testing.T) {
	rt := amt.New(3)
	h := RegisterHandlers(rt, 100)
	rt.Run(func(rc *amt.Context) {
		res, err := RunDistributed(rc, h, distConfig(), nil)
		if err != nil {
			t.Error(err)
		}
		if res.InitialImbalance != 0 || res.FinalImbalance != 0 {
			t.Errorf("empty system: %+v", res)
		}
	})
}

// TestDistributedBadConfig: an invalid value is refused by name on every
// rank. (A knob only the engine takes is not a core.Config field, so
// there is no such configuration to refuse.)
func TestDistributedBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*core.Config)
	}{
		{"fanout", func(c *core.Config) { c.Fanout = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := amt.New(2)
			h := RegisterHandlers(rt, 100)
			cfg := distConfig()
			tc.set(&cfg)
			rt.Run(func(rc *amt.Context) {
				_, err := RunDistributed(rc, h, cfg, nil)
				if err == nil {
					t.Error("bad config accepted")
				} else if !strings.Contains(err.Error(), tc.name) {
					t.Errorf("error %q does not name %s", err, tc.name)
				}
			})
		})
	}
}

func TestDistributedRepeatedInvocations(t *testing.T) {
	// Two LB invocations back to back, as a time-varying application
	// would issue; the second starts from the improved distribution.
	rt := amt.New(8)
	h := RegisterHandlers(rt, 100)
	rt.Run(func(rc *amt.Context) {
		rng := rand.New(rand.NewSource(int64(rc.Rank())))
		loads := map[amt.ObjectID]float64{}
		if rc.Rank() == 0 {
			for i := 0; i < 24; i++ {
				l := 0.3 + rng.Float64()
				loads[rc.CreateObject(&colorState{Load: l})] = l
			}
		}
		rc.Barrier()
		res1, err := RunDistributed(rc, h, distConfig(), loads)
		if err != nil {
			t.Error(err)
			return
		}
		// Re-derive local loads from the objects now present.
		loads2 := map[amt.ObjectID]float64{}
		for _, id := range rc.LocalObjects() {
			s, _ := rc.ObjectState(id)
			loads2[id] = s.(*colorState).Load
		}
		cfg2 := distConfig()
		cfg2.Seed = 99
		res2, err := RunDistributed(rc, h, cfg2, loads2)
		if err != nil {
			t.Error(err)
			return
		}
		if rc.Rank() == 0 {
			if res2.InitialImbalance > res1.FinalImbalance+1e-9 {
				t.Errorf("second invocation saw I %g, first ended at %g",
					res2.InitialImbalance, res1.FinalImbalance)
			}
			if res2.FinalImbalance > res2.InitialImbalance {
				t.Errorf("second invocation worsened: %+v", res2)
			}
		}
	})
}

// TestDistributedStressInterleaved runs many LB invocations at a larger
// rank count with the hot spot shifting between rounds — collectives,
// epochs, migrations and gossip all interleaving. Run with -race in CI.
func TestDistributedStressInterleaved(t *testing.T) {
	const nRanks = 48
	rt := amt.New(nRanks)
	h := RegisterHandlers(rt, 100)
	rt.Run(func(rc *amt.Context) {
		rng := rand.New(rand.NewSource(int64(rc.Rank()) + 1))
		// Seed objects on a rotating pair of hot ranks each round by
		// migrating everything to them first.
		if rc.Rank() == 0 {
			for i := 0; i < 96; i++ {
				rc.CreateObject(&colorState{Load: 0.2 + rng.Float64()})
			}
		}
		rc.Barrier()
		prev := -1.0
		for round := 0; round < 4; round++ {
			loads := map[amt.ObjectID]float64{}
			for _, id := range rc.LocalObjects() {
				s, _ := rc.ObjectState(id)
				loads[id] = s.(*colorState).Load
			}
			cfg := distConfig()
			cfg.Seed = int64(round + 1)
			res, err := RunDistributed(rc, h, cfg, loads)
			if err != nil {
				t.Errorf("round %d: %v", round, err)
				return
			}
			if rc.Rank() == 0 {
				if prev >= 0 && res.InitialImbalance > prev+1e-9 {
					t.Errorf("round %d: starting I %g above previous best %g",
						round, res.InitialImbalance, prev)
				}
				prev = res.FinalImbalance
			}
			rc.Barrier()
		}
		// Census: objects conserved.
		count := rc.AllReduce(float64(len(rc.LocalObjects())), amt.ReduceSum)
		if count != 96 {
			t.Errorf("census %g, want 96", count)
		}
	})
}

// TestDistributedManyRanksConverges checks convergence quality at a
// rank count big enough that partial gossip knowledge matters.
func TestDistributedManyRanksConverges(t *testing.T) {
	results, _, actualI := runDistributedCase(t, 40, 4, 30, distConfig())
	if results[0].FinalImbalance >= results[0].InitialImbalance/3 {
		t.Errorf("weak convergence at 40 ranks: %g -> %g",
			results[0].InitialImbalance, results[0].FinalImbalance)
	}
	if actualI > results[0].FinalImbalance+1e-9 {
		t.Errorf("physical I %g exceeds reported %g", actualI, results[0].FinalImbalance)
	}
}

// TestDistributedUnderJitter runs the full distributed protocol with
// randomized delivery delays: quality and object conservation must
// survive arbitrary message interleavings.
func TestDistributedUnderJitter(t *testing.T) {
	rt := amt.New(10)
	if err := rt.SetFaults(comm.FaultSpec{Seed: 0x5eed, DelayMax: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	h := RegisterHandlers(rt, 100)
	census := make([]int, 10)
	results := make([]DistResult, 10)
	rt.Run(func(rc *amt.Context) {
		rng := rand.New(rand.NewSource(int64(rc.Rank()) + 3))
		loads := map[amt.ObjectID]float64{}
		if rc.Rank() < 2 {
			for i := 0; i < 30; i++ {
				l := 0.2 + rng.Float64()
				loads[rc.CreateObject(&colorState{Load: l})] = l
			}
		}
		rc.Barrier()
		res, err := RunDistributed(rc, h, distConfig(), loads)
		if err != nil {
			t.Errorf("rank %d: %v", rc.Rank(), err)
			return
		}
		results[rc.Rank()] = res
		rc.Barrier()
		census[rc.Rank()] = len(rc.LocalObjects())
	})
	total := 0
	for _, c := range census {
		total += c
	}
	if total != 60 {
		t.Errorf("census %d, want 60", total)
	}
	if results[0].FinalImbalance >= results[0].InitialImbalance/2 {
		t.Errorf("weak improvement under jitter: %g -> %g",
			results[0].InitialImbalance, results[0].FinalImbalance)
	}
	for r := 1; r < 10; r++ {
		if results[r].FinalImbalance != results[0].FinalImbalance {
			t.Errorf("rank %d disagrees under jitter", r)
		}
	}
}
