package tempered

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"temperedlb/internal/amt"
	"temperedlb/internal/comm"
	"temperedlb/internal/core"
)

// dyadicLoad is the default chaos workload: multiples of 1/8, so any
// summation order is exact and faulted/fault-free runs cannot diverge by
// rounding even without ordering guarantees.
func dyadicLoad(rank, i, objsPerHot int) float64 {
	return float64((rank*objsPerHot+i)%8+1) / 8
}

// nonDyadicLoad deliberately picks loads whose sums round differently
// under different addition orders (sevenths and thirds have no finite
// binary expansion), so a test using it detects any arrival-order
// dependence in the floating-point aggregation paths.
func nonDyadicLoad(rank, i, objsPerHot int) float64 {
	k := rank*objsPerHot + i
	return 1.0/3.0 + float64(k%7)/7.0
}

// runChaosCase stands up a runtime with an optional fault spec, seeds a
// deterministic clustered workload via loadFn, runs the distributed
// balancer, and returns the per-rank results, fault statistics, and
// final object census.
func runChaosCase(t *testing.T, nRanks, hot, objsPerHot int, cfg core.Config, sp *comm.FaultSpec, loadFn func(rank, i, objsPerHot int) float64) ([]DistResult, amt.FaultStats, int) {
	t.Helper()
	rt := amt.New(nRanks)
	if sp != nil {
		if err := rt.SetFaults(*sp); err != nil {
			t.Fatal(err)
		}
	}
	h := RegisterHandlers(rt, 100)
	results := make([]DistResult, nRanks)
	census := make([]int, nRanks)
	var mu sync.Mutex

	rt.Run(func(rc *amt.Context) {
		loads := make(map[amt.ObjectID]float64)
		if int(rc.Rank()) < hot {
			for i := 0; i < objsPerHot; i++ {
				l := loadFn(int(rc.Rank()), i, objsPerHot)
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
		mu.Unlock()
	})

	total := 0
	for _, c := range census {
		total += c
	}
	return results, rt.FaultStats(), total
}

// stripTiming zeroes the wall-clock fields of a result so runs can be
// compared for protocol-level equality.
func stripTiming(r DistResult) DistResult { return r.StripTiming() }

// TestDistributedChaosLossy runs the full TemperedLB protocol over a
// transport that drops, duplicates and delays the balancer's own
// messages: the run must terminate, conserve every object, agree across
// ranks, and still improve the imbalance.
func TestDistributedChaosLossy(t *testing.T) {
	sp := &comm.FaultSpec{
		Seed: 1, Drop: 0.05, Dup: 0.05,
		DelayMax: 2 * time.Millisecond,
	}
	results, st, census := runChaosCase(t, 12, 2, 40, distConfig(), sp, dyadicLoad)
	if census != 80 {
		t.Errorf("object census %d, want 80 (objects lost or duplicated under faults)", census)
	}
	res := results[0]
	if res.InitialImbalance < 3 {
		t.Fatalf("initial I only %g", res.InitialImbalance)
	}
	if res.FinalImbalance >= res.InitialImbalance/3 {
		t.Errorf("weak improvement under faults: %g -> %g",
			res.InitialImbalance, res.FinalImbalance)
	}
	for r := 1; r < len(results); r++ {
		if results[r].FinalImbalance != res.FinalImbalance ||
			results[r].BestTrial != res.BestTrial ||
			results[r].BestIteration != res.BestIteration {
			t.Errorf("rank %d disagrees under faults: %+v vs %+v", r, results[r], res)
		}
	}
	if st.Dropped == 0 || st.Duplicated == 0 {
		t.Errorf("fault plan injected nothing: %+v", st)
	}
	if st.Retries == 0 {
		t.Errorf("drops were not recovered by retries: %+v", st)
	}
}

// TestDistributedChaosMatchesFaultFree pins the determinism contract:
// with single-round gossip (no arrival-order-dependent forwarding) and
// canonicalized knowledge, a faulted run must produce the exact same
// balancing decisions as the fault-free run — drop, duplication and delay
// may only cost wall-clock time, never change the outcome.
func TestDistributedChaosMatchesFaultFree(t *testing.T) {
	cfg := distConfig()
	cfg.Rounds = 1
	clean, _, cleanCensus := runChaosCase(t, 10, 2, 32, cfg, nil, dyadicLoad)
	sp := &comm.FaultSpec{
		Seed: 7, Drop: 0.1, Dup: 0.1,
		DelayMax: time.Millisecond,
	}
	faulted, st, faultedCensus := runChaosCase(t, 10, 2, 32, cfg, sp, dyadicLoad)
	if st.Dropped == 0 || st.Duplicated == 0 || st.Retries == 0 {
		t.Fatalf("fault plan injected nothing: %+v", st)
	}
	if cleanCensus != faultedCensus {
		t.Errorf("census differs: clean %d, faulted %d", cleanCensus, faultedCensus)
	}
	for r := range clean {
		c, f := stripTiming(clean[r]), stripTiming(faulted[r])
		if !reflect.DeepEqual(c, f) {
			t.Errorf("rank %d diverged under faults:\nclean:   %+v\nfaulted: %+v", r, c, f)
		}
	}
}

// TestDistributedChaosEmptyPlanIdentity pins the zero-cost-when-off
// contract end to end: installing an empty fault spec changes nothing
// about a distributed run's decisions.
func TestDistributedChaosEmptyPlanIdentity(t *testing.T) {
	cfg := distConfig()
	cfg.Rounds = 1
	plain, _, _ := runChaosCase(t, 8, 2, 24, cfg, nil, dyadicLoad)
	empty, st, _ := runChaosCase(t, 8, 2, 24, cfg, &comm.FaultSpec{}, dyadicLoad)
	if st != (amt.FaultStats{}) {
		t.Fatalf("empty spec produced fault activity: %+v", st)
	}
	for r := range plain {
		if !reflect.DeepEqual(stripTiming(plain[r]), stripTiming(empty[r])) {
			t.Errorf("rank %d: empty fault spec changed the outcome", r)
		}
	}
}

// TestDistributedDelayDeterminismNonDyadic pins the bit-determinism of
// the floating-point aggregation itself: with non-dyadic loads (whose
// sums depend on addition order), a run under message delays plus a
// straggler must produce a DistResult bit-identical to the fault-free
// run. This only holds because both local summation (sorted object
// order) and the tree collectives (combine order fixed by topology, not
// arrival order) are independent of message timing. A delay-only spec
// must also leave the reliability layer off: zero retries, zero drops.
func TestDistributedDelayDeterminismNonDyadic(t *testing.T) {
	cfg := distConfig()
	cfg.Rounds = 1
	clean, _, cleanCensus := runChaosCase(t, 12, 3, 24, cfg, nil, nonDyadicLoad)
	sp := &comm.FaultSpec{
		Seed:      5,
		DelayMax:  2 * time.Millisecond,
		SlowRanks: map[int]time.Duration{2: 3 * time.Millisecond},
	}
	delayed, st, delayedCensus := runChaosCase(t, 12, 3, 24, cfg, sp, nonDyadicLoad)
	if st != (amt.FaultStats{}) {
		t.Fatalf("delay-only spec engaged the reliability layer: %+v", st)
	}
	if cleanCensus != delayedCensus {
		t.Errorf("census differs: clean %d, delayed %d", cleanCensus, delayedCensus)
	}
	for r := range clean {
		c, d := stripTiming(clean[r]), stripTiming(delayed[r])
		if !reflect.DeepEqual(c, d) {
			t.Errorf("rank %d: delays perturbed a float result:\nclean:   %+v\ndelayed: %+v", r, c, d)
		}
	}
}

// TestDistributedChaosStraggler slows one rank's traffic on top of drops:
// the protocol must still converge and agree.
func TestDistributedChaosStraggler(t *testing.T) {
	sp := &comm.FaultSpec{
		Seed: 3, Drop: 0.05,
		SlowRanks: map[int]time.Duration{1: 2 * time.Millisecond},
	}
	results, st, census := runChaosCase(t, 8, 1, 32, distConfig(), sp, dyadicLoad)
	if census != 32 {
		t.Errorf("census %d, want 32", census)
	}
	if st.Dropped == 0 {
		t.Errorf("no drops injected: %+v", st)
	}
	for r := 1; r < len(results); r++ {
		if results[r].FinalImbalance != results[0].FinalImbalance {
			t.Errorf("rank %d disagrees with straggler present", r)
		}
	}
}
