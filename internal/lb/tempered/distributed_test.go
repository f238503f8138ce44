package tempered

import (
	"math/rand"
	"reflect"
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

// repeatedRun is what runRepeated observed after each invocation i: every
// rank's result with its timing stripped and the gossip state it held
// (results[i][r], informs[i][r]), and the objects of all ranks and their
// total load (objects[i], loads[i]); then the runtime's fault totals.
type repeatedRun struct {
	results [][]DistResult
	informs [][]*core.InformState
	objects []int
	loads   []float64
	faults  amt.FaultStats
}

// runRepeated invokes the balancer once per config, back to back on one
// runtime of nRanks ranks whose first two hold 24 dyadic-load objects
// each, every invocation on the objects the last one left. With fresh,
// the runtime has a Handlers per invocation, each registered at its own
// base before Run; without it, one Handlers serves them all.
func runRepeated(t *testing.T, nRanks int, cfgs []core.Config, fresh bool, sp *comm.FaultSpec) repeatedRun {
	t.Helper()
	rt := amt.New(nRanks)
	if sp != nil {
		if err := rt.SetFaults(*sp); err != nil {
			t.Fatal(err)
		}
	}
	hs := make([]*Handlers, len(cfgs))
	for i := range hs {
		if i == 0 || fresh {
			hs[i] = RegisterHandlers(rt, amt.HandlerID(100+10*i))
		} else {
			hs[i] = hs[0]
		}
	}
	run := repeatedRun{
		results: make([][]DistResult, len(cfgs)),
		informs: make([][]*core.InformState, len(cfgs)),
		objects: make([]int, len(cfgs)),
		loads:   make([]float64, len(cfgs)),
	}
	for i := range cfgs {
		run.results[i] = make([]DistResult, nRanks)
		run.informs[i] = make([]*core.InformState, nRanks)
	}
	rt.Run(func(rc *amt.Context) {
		self := int(rc.Rank())
		if self < 2 {
			for j := 0; j < 24; j++ {
				rc.CreateObject(&colorState{Load: dyadicLoad(self, j, 24)})
			}
		}
		rc.Barrier()
		for i, cfg := range cfgs {
			loads := map[amt.ObjectID]float64{}
			for _, id := range rc.LocalObjects() {
				s, _ := rc.ObjectState(id)
				loads[id] = s.(*colorState).Load
			}
			res, err := RunDistributed(rc, hs[i], cfg, loads)
			if err != nil {
				t.Errorf("rank %d, invocation %d: %v", self, i, err)
				return
			}
			run.results[i][self] = res.StripTiming()
			run.informs[i][self] = hs[i].st[self].inform
			total := 0.0
			for _, id := range rc.LocalObjects() {
				s, _ := rc.ObjectState(id)
				total += s.(*colorState).Load
			}
			sums := rc.AllReduceMixed([]float64{float64(len(rc.LocalObjects())), total},
				[]amt.ReduceOp{amt.ReduceSum, amt.ReduceSum})
			if self == 0 {
				run.objects[i], run.loads[i] = int(sums[0]), sums[1]
			}
		}
	})
	run.faults = rt.FaultStats()
	return run
}

// TestDistributedKeptStateMatchesFreshHandlers: a rank keeps one gossip
// state across invocations, and invocations whose seed and fan-out change
// from call to call decide on it exactly what they decide on handlers
// registered afresh for each — so no invocation reads a Config, a
// generator stream or knowledge that an earlier one left.
func TestDistributedKeptStateMatchesFreshHandlers(t *testing.T) {
	const nRanks = 10
	var cfgs []core.Config
	for i, fanout := range []int{2, 4, 3} {
		cfg := distConfig()
		cfg.Rounds, cfg.Fanout, cfg.Seed = 1, fanout, int64(5+i)
		cfgs = append(cfgs, cfg)
	}
	kept := runRepeated(t, nRanks, cfgs, false, nil)
	fresh := runRepeated(t, nRanks, cfgs, true, nil)
	for i := range cfgs {
		for r := 0; r < nRanks; r++ {
			if !reflect.DeepEqual(kept.results[i][r], fresh.results[i][r]) {
				t.Errorf("invocation %d, rank %d: kept state and fresh handlers differ:\nkept:  %+v\nfresh: %+v",
					i, r, kept.results[i][r], fresh.results[i][r])
			}
			if kept.informs[i][r] != kept.informs[0][r] {
				t.Errorf("invocation %d, rank %d: the gossip state was rebuilt", i, r)
			}
		}
	}
	if kept.results[0][0].FinalImbalance >= kept.results[0][0].InitialImbalance {
		t.Errorf("the first invocation did not balance: %+v", kept.results[0][0])
	}
}

// TestDistributedRoundsChangeAcrossInvocations: one rank's kept gossip
// state serves invocations at k = 1, then 3, then 1 again — its payload
// slots grow for the second — and each conserves the objects and their
// load and ends with the same History on every rank.
func TestDistributedRoundsChangeAcrossInvocations(t *testing.T) {
	const nRanks = 10
	var cfgs []core.Config
	for i, rounds := range []int{1, 3, 1} {
		cfg := distConfig()
		cfg.Rounds, cfg.Seed = rounds, int64(21+i)
		cfgs = append(cfgs, cfg)
	}
	run := runRepeated(t, nRanks, cfgs, false, nil)
	want := 0.0
	for self := 0; self < 2; self++ {
		for j := 0; j < 24; j++ {
			want += dyadicLoad(self, j, 24)
		}
	}
	for i := range cfgs {
		if run.objects[i] != 48 || run.loads[i] != want {
			t.Errorf("invocation %d (k = %d) left %d objects of load %g, want 48 of %g",
				i, cfgs[i].Rounds, run.objects[i], run.loads[i], want)
		}
		for r := 1; r < nRanks; r++ {
			if !reflect.DeepEqual(run.results[i][r].History, run.results[i][0].History) {
				t.Errorf("invocation %d (k = %d): rank %d's History differs from rank 0's", i, cfgs[i].Rounds, r)
			}
			if run.informs[i][r] != run.informs[0][r] {
				t.Errorf("invocation %d, rank %d: the gossip state was rebuilt", i, r)
			}
		}
		if len(run.results[i][0].History) != cfgs[i].Trials*cfgs[i].Iterations {
			t.Errorf("invocation %d: %d History rows, want %d", i, len(run.results[i][0].History), cfgs[i].Trials*cfgs[i].Iterations)
		}
	}
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
