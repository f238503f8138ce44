package amt

import (
	"sync/atomic"
	"testing"
	"time"

	"temperedlb/internal/comm"
	"temperedlb/internal/core"
)

// TestChaosJitteredEpochs runs cascading epochs, migrations and
// collectives under randomized delivery delays: the protocols must
// produce the same outcomes as in-order delivery.
func TestChaosJitteredEpochs(t *testing.T) {
	rt := New(6)
	if err := rt.SetFaults(comm.FaultSpec{Seed: 0x5eed, DelayMax: 2 * time.Millisecond}); err != nil {
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
			before := hops.Load()
			_ = before
			rc.Epoch(func() {
				if rc.Rank() == 0 {
					rc.Send(1, hCascade, 30)
				}
			})
			// Termination must imply the whole chain ran.
			if got := hops.Load(); got%31 != 0 {
				t.Errorf("round %d: epoch ended mid-chain at %d hops", round, got)
			}
			if sum := rc.AllReduce(1, ReduceSum); sum != 6 {
				t.Errorf("allreduce under jitter: %g", sum)
			}
			rc.Barrier()
		}
	})
	if hops.Load() != 3*31 {
		t.Errorf("total hops %d, want 93", hops.Load())
	}
}

// TestChaosJitteredMigrations shuffles objects under jitter and checks
// the census and message delivery-exactly-once invariants survive
// out-of-order delivery.
func TestChaosJitteredMigrations(t *testing.T) {
	const nRanks, nObjs = 5, 30
	rt := New(nRanks)
	if err := rt.SetFaults(comm.FaultSpec{Seed: 0x5eed, DelayMax: 2 * time.Millisecond}); err != nil {
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
			// Poke every object by id from rank 0's original list —
			// forwarding must chase the jittered migrations.
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
		// Every poke delivered exactly once: sum of Values == pokes.
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
