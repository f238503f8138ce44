package amt

import (
	"sync"
	"sync/atomic"
	"testing"

	"temperedlb/internal/core"
)

const (
	hPing HandlerID = iota
	hCascade
	hCollect
	hObjPoke
	hObjAdd
)

func TestRunAllRanksExecute(t *testing.T) {
	rt := New(8)
	var count atomic.Int32
	rt.Run(func(rc *Context) {
		count.Add(1)
		if rc.NumRanks() != 8 {
			t.Errorf("NumRanks = %d", rc.NumRanks())
		}
	})
	if count.Load() != 8 {
		t.Errorf("ran %d ranks", count.Load())
	}
}

func TestSendAndHandle(t *testing.T) {
	rt := New(4)
	var mu sync.Mutex
	got := map[core.Rank][]any{}
	rt.Register(hPing, func(rc *Context, from core.Rank, data any) {
		mu.Lock()
		got[rc.Rank()] = append(got[rc.Rank()], data)
		mu.Unlock()
	})
	rt.Run(func(rc *Context) {
		rc.Epoch(func() {
			if rc.Rank() == 0 {
				for r := 1; r < rc.NumRanks(); r++ {
					rc.Send(core.Rank(r), hPing, r*10)
				}
			}
		})
	})
	for r := 1; r < 4; r++ {
		msgs := got[core.Rank(r)]
		if len(msgs) != 1 || msgs[0] != r*10 {
			t.Errorf("rank %d got %v", r, msgs)
		}
	}
}

// TestEpochWaitsForCascade is the essential termination-detection test:
// an epoch only ends after a long causal chain of messages has fully
// played out on every rank.
func TestEpochWaitsForCascade(t *testing.T) {
	rt := New(6)
	var hops atomic.Int64
	rt.Register(hCascade, func(rc *Context, from core.Rank, data any) {
		n := data.(int)
		hops.Add(1)
		if n > 0 {
			next := (rc.Rank() + 1) % core.Rank(rc.NumRanks())
			rc.Send(next, hCascade, n-1)
		}
	})
	const chain = 100
	rt.Run(func(rc *Context) {
		rc.Epoch(func() {
			if rc.Rank() == 0 {
				rc.Send(1, hCascade, chain)
			}
		})
		// The epoch must not return before the whole chain completed.
		if got := hops.Load(); got != chain+1 {
			t.Errorf("rank %d exited epoch after %d hops, want %d", rc.Rank(), got, chain+1)
		}
	})
}

func TestEpochEmptyBodyTerminates(t *testing.T) {
	rt := New(5)
	rt.Run(func(rc *Context) {
		for i := 0; i < 3; i++ {
			rc.Epoch(func() {})
		}
	})
}

func TestSequentialEpochsIsolated(t *testing.T) {
	rt := New(4)
	var epoch1, epoch2 atomic.Int64
	rt.Register(hPing, func(rc *Context, from core.Rank, data any) {
		if data.(int) == 1 {
			epoch1.Add(1)
		} else {
			epoch2.Add(1)
		}
	})
	rt.Run(func(rc *Context) {
		rc.Epoch(func() {
			rc.Send(core.Rank((int(rc.Rank())+1)%4), hPing, 1)
		})
		if rc.Rank() == 0 && epoch1.Load() != 4 {
			t.Errorf("epoch 1 incomplete at boundary: %d", epoch1.Load())
		}
		rc.Epoch(func() {
			rc.Send(core.Rank((int(rc.Rank())+2)%4), hPing, 2)
		})
	})
	if epoch1.Load() != 4 || epoch2.Load() != 4 {
		t.Errorf("deliveries: %d, %d", epoch1.Load(), epoch2.Load())
	}
}

func TestBarrier(t *testing.T) {
	rt := New(8)
	var phase atomic.Int32
	fail := atomic.Bool{}
	rt.Run(func(rc *Context) {
		phase.Add(1)
		rc.Barrier()
		// After the barrier, every rank must have completed the first
		// increment.
		if phase.Load() < 8 {
			fail.Store(true)
		}
		rc.Barrier()
	})
	if fail.Load() {
		t.Error("barrier released before all ranks arrived")
	}
}

func TestAllReduce(t *testing.T) {
	rt := New(6)
	var mu sync.Mutex
	var sums, maxs, mins []float64
	rt.Run(func(rc *Context) {
		v := float64(rc.Rank() + 1) // 1..6
		sum := rc.AllReduce(v, ReduceSum)
		max := rc.AllReduce(v, ReduceMax)
		min := rc.AllReduce(v, ReduceMin)
		mu.Lock()
		sums = append(sums, sum)
		maxs = append(maxs, max)
		mins = append(mins, min)
		mu.Unlock()
	})
	for i := range sums {
		if sums[i] != 21 || maxs[i] != 6 || mins[i] != 1 {
			t.Fatalf("reduce wrong: sum=%g max=%g min=%g", sums[i], maxs[i], mins[i])
		}
	}
}

func TestManyCollectivesStress(t *testing.T) {
	rt := New(5)
	rt.Run(func(rc *Context) {
		for i := 0; i < 50; i++ {
			got := rc.AllReduce(1, ReduceSum)
			if got != 5 {
				t.Errorf("iteration %d: sum=%g", i, got)
			}
			rc.Barrier()
		}
	})
}

func TestEpochAfterBarrierRace(t *testing.T) {
	// A rank can enter the epoch and send while others still sit in the
	// preceding barrier; the stash mechanism must hold those messages.
	rt := New(8)
	var delivered atomic.Int64
	rt.Register(hPing, func(rc *Context, from core.Rank, data any) {
		delivered.Add(1)
	})
	rt.Run(func(rc *Context) {
		for i := 0; i < 20; i++ {
			rc.Barrier()
			rc.Epoch(func() {
				for r := 0; r < rc.NumRanks(); r++ {
					if core.Rank(r) != rc.Rank() {
						rc.Send(core.Rank(r), hPing, i)
					}
				}
			})
		}
	})
	if want := int64(20 * 8 * 7); delivered.Load() != want {
		t.Errorf("delivered %d, want %d", delivered.Load(), want)
	}
}

func TestRegisterAfterRunPanics(t *testing.T) {
	rt := New(1)
	rt.Run(func(rc *Context) {})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	rt.Register(hPing, func(rc *Context, from core.Rank, data any) {})
}

func TestDuplicateHandlerPanics(t *testing.T) {
	rt := New(1)
	rt.Register(hPing, func(rc *Context, from core.Rank, data any) {})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	rt.Register(hPing, func(rc *Context, from core.Rank, data any) {})
}

func TestSendUnregisteredPanics(t *testing.T) {
	rt := New(2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic propagated from rank")
		}
	}()
	rt.Run(func(rc *Context) {
		if rc.Rank() == 0 {
			rc.Send(1, HandlerID(99), nil)
		}
	})
}

func TestRankPanicPropagates(t *testing.T) {
	rt := New(3)
	defer func() {
		if recover() == nil {
			t.Error("rank panic not propagated")
		}
	}()
	rt.Run(func(rc *Context) {
		if rc.Rank() == 2 {
			panic("boom")
		}
	})
}

func TestTotalMessagesCounts(t *testing.T) {
	rt := New(3)
	rt.Register(hPing, func(rc *Context, from core.Rank, data any) {})
	rt.Run(func(rc *Context) {
		rc.Epoch(func() {
			if rc.Rank() == 0 {
				rc.Send(1, hPing, nil)
			}
		})
	})
	if rt.TotalMessages() < 1 {
		t.Error("no messages counted")
	}
}

func TestNestedEpochPanics(t *testing.T) {
	rt := New(1)
	defer func() {
		if recover() == nil {
			t.Error("nested epoch accepted")
		}
	}()
	rt.Run(func(rc *Context) {
		rc.Epoch(func() {
			rc.Epoch(func() {})
		})
	})
}
