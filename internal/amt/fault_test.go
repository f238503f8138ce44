package amt

import (
	"sync/atomic"
	"testing"
	"time"

	"temperedlb/internal/comm"
	"temperedlb/internal/core"
	"temperedlb/internal/obs"
)

// lossySpec is an aggressive drop+dup+delay plan used by the chaos
// tests: every fifth message lost, every fifth duplicated, deliveries
// smeared over a millisecond.
func lossySpec(seed int64) comm.FaultSpec {
	return comm.FaultSpec{
		Seed: seed, Drop: 0.2, Dup: 0.2,
		DelayMax: time.Millisecond,
	}
}

// TestChaosFaultyEpochs runs cascading epochs and collectives over a
// transport that drops, duplicates and delays epoch messages: the
// ack/retry layer must deliver every hop exactly once and termination
// detection must still find quiescence.
func TestChaosFaultyEpochs(t *testing.T) {
	rt := New(6)
	if err := rt.SetFaults(lossySpec(42)); err != nil {
		t.Fatal(err)
	}
	var hops atomic.Int64
	rt.Register(hCascade, func(rc *Context, from core.Rank, data any) {
		n := data.(int)
		hops.Add(1)
		if n > 0 {
			rc.Send((rc.Rank()+1)%core.Rank(rc.NumRanks()), hCascade, n-1)
		}
	})
	rt.Run(func(rc *Context) {
		for round := 0; round < 3; round++ {
			rc.Epoch(func() {
				if rc.Rank() == 0 {
					rc.Send(1, hCascade, 30)
				}
			})
			// Termination must imply the whole chain ran despite drops.
			if got := hops.Load(); got%31 != 0 {
				t.Errorf("round %d: epoch ended mid-chain at %d hops", round, got)
			}
			if sum := rc.AllReduce(1, ReduceSum); sum != 6 {
				t.Errorf("allreduce under faults: %g", sum)
			}
			rc.Barrier()
		}
	})
	if hops.Load() != 3*31 {
		t.Errorf("total hops %d, want 93", hops.Load())
	}
	st := rt.FaultStats()
	if st.Dropped == 0 || st.Duplicated == 0 {
		t.Errorf("fault plan injected nothing: %+v", st)
	}
	if st.Retries == 0 {
		t.Errorf("drops recovered without retries: %+v", st)
	}
	if st.DupDrops == 0 {
		t.Errorf("duplicates were not filtered: %+v", st)
	}
}

// TestChaosFaultyMigrations shuffles objects and chases them with
// object messages while the transport drops and duplicates: census and
// exactly-once poke delivery must survive, including for the migrate
// and location-update kinds.
func TestChaosFaultyMigrations(t *testing.T) {
	const nRanks, nObjs = 5, 30
	rt := New(nRanks)
	if err := rt.SetFaults(lossySpec(7)); err != nil {
		t.Fatal(err)
	}
	var pokes atomic.Int64
	rt.RegisterObject(hObjAdd, func(rc *Context, obj ObjectID, state any, from core.Rank, data any) {
		state.(*counterState).Value += data.(int)
		pokes.Add(1)
	})
	rt.Run(func(rc *Context) {
		var ids []ObjectID
		if rc.Rank() == 0 {
			for i := 0; i < nObjs; i++ {
				ids = append(ids, rc.CreateObject(&counterState{}))
			}
		}
		rc.Barrier()
		for round := 0; round < 3; round++ {
			rc.Epoch(func() {
				for _, id := range rc.LocalObjects() {
					rc.Migrate(id, core.Rank((int(id)+round+1)%nRanks))
				}
			})
			rc.Epoch(func() {
				if rc.Rank() == 0 {
					for _, id := range ids {
						rc.SendObject(id, hObjAdd, 1)
					}
				}
			})
		}
		rc.Barrier()
		count := rc.AllReduce(float64(len(rc.LocalObjects())), ReduceSum)
		if count != nObjs {
			t.Errorf("census %g, want %d", count, nObjs)
		}
		local := 0.0
		for _, id := range rc.LocalObjects() {
			s, _ := rc.ObjectState(id)
			local += float64(s.(*counterState).Value)
		}
		total := rc.AllReduce(local, ReduceSum)
		if int64(total) != pokes.Load() || pokes.Load() != 3*nObjs {
			t.Errorf("pokes %d, object sum %g, want %d", pokes.Load(), total, 3*nObjs)
		}
	})
}

// TestChaosFaultyStragglers combines drops with a slowed rank: the
// straggler's traffic limps, everyone else's races ahead, and the
// protocols must still converge.
func TestChaosFaultyStragglers(t *testing.T) {
	rt := New(4)
	sp := comm.FaultSpec{
		Seed: 3, Drop: 0.1,
		SlowRanks: map[int]time.Duration{2: 2 * time.Millisecond},
	}
	if err := rt.SetFaults(sp); err != nil {
		t.Fatal(err)
	}
	var hops atomic.Int64
	rt.Register(hCascade, func(rc *Context, from core.Rank, data any) {
		n := data.(int)
		hops.Add(1)
		if n > 0 {
			rc.Send((rc.Rank()+1)%core.Rank(rc.NumRanks()), hCascade, n-1)
		}
	})
	rt.Run(func(rc *Context) {
		rc.Epoch(func() {
			rc.Send((rc.Rank()+1)%4, hCascade, 10)
		})
	})
	if got := hops.Load(); got != 4*11 {
		t.Errorf("hops %d, want 44", got)
	}
}

// TestFaultsInstrumented checks the observability story of a faulted
// run: the drop/duplicate counters fold into the metrics registry and
// the trace carries retry and dup-drop events matching FaultStats.
func TestFaultsInstrumented(t *testing.T) {
	rec := obs.NewRecorder()
	rt := New(4, WithTracer(rec), WithMetrics())
	if err := rt.SetFaults(lossySpec(99)); err != nil {
		t.Fatal(err)
	}
	rt.Register(hCascade, func(rc *Context, from core.Rank, data any) {
		n := data.(int)
		if n > 0 {
			rc.Send((rc.Rank()+1)%core.Rank(rc.NumRanks()), hCascade, n-1)
		}
	})
	rt.Run(func(rc *Context) {
		for round := 0; round < 2; round++ {
			rc.Epoch(func() {
				rc.Send((rc.Rank()+1)%4, hCascade, 20)
			})
		}
	})
	st := rt.FaultStats()
	if st.Dropped == 0 || st.Retries == 0 || st.DupDrops == 0 {
		t.Fatalf("expected a lossy run, got %+v", st)
	}
	m := rt.Metrics()
	if got := m.Counter(`comm_dropped_total{kind="user"}`).Value(); got != st.Dropped {
		t.Errorf("comm_dropped_total{user} = %d, want %d", got, st.Dropped)
	}
	if got := m.Counter("amt_retries_total").Value(); got != st.Retries {
		t.Errorf("amt_retries_total = %d, want %d", got, st.Retries)
	}
	if got := m.Counter("amt_duplicates_dropped_total").Value(); got != st.DupDrops {
		t.Errorf("amt_duplicates_dropped_total = %d, want %d", got, st.DupDrops)
	}
	retryEvents, dupEvents := int64(0), int64(0)
	for _, e := range rec.Events() {
		switch e.Type {
		case obs.EvRetry:
			retryEvents++
		case obs.EvDupDrop:
			dupEvents++
		}
	}
	if retryEvents != st.Retries || dupEvents != st.DupDrops {
		t.Errorf("trace has %d retries / %d dup-drops, FaultStats %+v",
			retryEvents, dupEvents, st)
	}
}

// TestRetryPacingFollowsFaultPlan pins the backoff to the derived first
// timeout: under a 50 ms delay window that timeout is 200 ms, so the cap
// must not sit below it, and no attempt may wait for its ack less than
// the first timeout or more than the cap.
func TestRetryPacingFollowsFaultPlan(t *testing.T) {
	const n, msgs = 8, 100
	rt := New(n)
	if err := rt.SetFaults(comm.FaultSpec{Seed: 1, Drop: 0.05, DelayMax: 50 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	var got atomic.Int64
	rt.Register(hPing, func(rc *Context, from core.Rank, data any) { got.Add(1) })
	var base time.Duration
	rt.Run(func(rc *Context) {
		if rc.Rank() == 0 {
			rl := rc.rel
			base = rl.base
			for a := 1; a <= 64; a++ {
				if d := rl.backoff(a); d < rl.base || d > rl.cap {
					t.Errorf("attempt %d waits %v, want in [%v, %v]", a, d, rl.base, rl.cap)
					break
				}
			}
		}
		rc.Epoch(func() {
			for i := 0; i < msgs; i++ {
				rc.Send((rc.Rank()+1)%n, hPing, i)
			}
		})
	})
	if got.Load() != n*msgs {
		t.Fatalf("delivered %d, want %d", got.Load(), n*msgs)
	}
	if base != 200*time.Millisecond {
		t.Fatalf("first timeout %v, want 200ms", base)
	}
	if rt.FaultStats().Retries == 0 {
		t.Fatal("no retransmissions: the plan dropped nothing")
	}
}

// TestEmptyFaultSpecLeavesFastPath pins the zero-cost-when-off
// contract: an empty spec neither perturbs delivery nor enables the
// reliability layer.
func TestEmptyFaultSpecLeavesFastPath(t *testing.T) {
	rt := New(2)
	if err := rt.SetFaults(comm.FaultSpec{}); err != nil {
		t.Fatal(err)
	}
	if rt.reliable {
		t.Fatal("empty spec enabled reliable mode")
	}
	rt.Register(hPing, func(rc *Context, from core.Rank, data any) {})
	rt.Run(func(rc *Context) {
		rc.Epoch(func() {
			if rc.Rank() == 0 {
				rc.Send(1, hPing, nil)
			}
		})
	})
	if st := rt.FaultStats(); st != (FaultStats{}) {
		t.Errorf("empty spec produced fault activity: %+v", st)
	}
}

func TestSetFaultsValidates(t *testing.T) {
	rt := New(4)
	for _, sp := range []comm.FaultSpec{
		{Drop: 1.0},
		{Dup: -0.5},
		{DelayMin: 2 * time.Millisecond, DelayMax: time.Millisecond},
		{SlowRanks: map[int]time.Duration{9: time.Millisecond}},
	} {
		if err := rt.SetFaults(sp); err == nil {
			t.Errorf("SetFaults(%+v): expected error", sp)
		}
	}
	rt.Register(hPing, func(rc *Context, from core.Rank, data any) {})
	rt.Run(func(rc *Context) {})
	defer func() {
		if recover() == nil {
			t.Error("expected panic calling SetFaults after Run")
		}
	}()
	_ = rt.SetFaults(comm.FaultSpec{Drop: 0.1})
}
