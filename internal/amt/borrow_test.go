package amt

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"temperedlb/internal/comm"
	"temperedlb/internal/comm/wire"
	"temperedlb/internal/core"
	"temperedlb/internal/obs"
)

const (
	hFanCascade HandlerID = 40 + iota
	hRingCascade
	hBoom
	hQuick
	hSlow
)

// runFanCascade runs epochs of cascading handlers on every runtime of a
// job (one per node) and returns the handler invocations and the borrows
// it saw. Each rank counts the goroutines inside its handlers and its
// epoch bodies: with borrowed execution a rank's code runs on whichever
// goroutine sent to it, and the count proves it is never two at once.
func runFanCascade(t *testing.T, n int, rts []*Runtime) (calls, lent int64) {
	t.Helper()
	inFlight := make([]atomic.Int32, n)
	enter := func(rc *Context) {
		if inFlight[rc.Rank()].Add(1) != 1 {
			t.Errorf("rank %d is run by two goroutines at once", rc.Rank())
		}
	}
	leave := func(rc *Context) { inFlight[rc.Rank()].Add(-1) }
	var nCalls, nLent atomic.Int64
	var wg sync.WaitGroup
	for _, rt := range rts {
		rt.Register(hFanCascade, func(rc *Context, from core.Rank, data any) {
			enter(rc)
			defer leave(rc)
			nCalls.Add(1)
			if hops := data.(int); hops > 0 {
				r := int(rc.Rank())
				rc.Send(core.Rank((r*7+hops)%n), hFanCascade, hops-1)
				rc.Send(core.Rank((r*3+hops+1)%n), hFanCascade, hops-1)
			}
		})
		wg.Add(1)
		go func(rt *Runtime) {
			defer wg.Done()
			rt.Run(func(rc *Context) {
				for e := 0; e < 4; e++ {
					rc.Epoch(func() {
						enter(rc)
						defer leave(rc)
						rc.Send(core.Rank((int(rc.Rank())+e+1)%n), hFanCascade, 5)
					})
					if rc.depth != 0 {
						t.Errorf("rank %d: depth %d on its own goroutine: a borrow was not cleared", rc.Rank(), rc.depth)
					}
					rc.Barrier()
				}
				nLent.Add(int64(rc.Stats.Lent))
			})
		}(rt)
	}
	wg.Wait()
	return nCalls.Load(), nLent.Load()
}

// TestOneGoroutineRunsARank is the ownership contract at the runtime
// level: 64 ranks, cascading handlers, every send a chance to borrow.
func TestOneGoroutineRunsARank(t *testing.T) {
	const n = 64
	calls, lent := runFanCascade(t, n, []*Runtime{New(n)})
	if want := int64(4 * n * (1<<6 - 1)); calls != want {
		t.Errorf("%d handler calls, want %d", calls, want)
	}
	if lent == 0 {
		t.Error("no send ever ran its destination: the test exercised only woken owners")
	}
}

// TestOneGoroutineRunsARankAcrossNodes is the same on a two-node unix
// cluster: local sends borrow, remote ones arrive from reader goroutines
// that never do.
func TestOneGoroutineRunsARankAcrossNodes(t *testing.T) {
	const n, nodes = 64, 2
	cluster, err := wire.NewCluster("unix", n, nodes, 0xB0220)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	rts := make([]*Runtime, nodes)
	for i, tr := range cluster.Transports {
		rts[i] = New(n, WithTransport(tr))
	}
	calls, _ := runFanCascade(t, n, rts)
	if want := int64(4 * n * (1<<6 - 1)); calls != want {
		t.Errorf("%d handler calls, want %d", calls, want)
	}
}

// TestFaultPlanNeverLends: under a fault plan the plan decides every
// delivery — delayed copies land from goroutines that run no rank — so no
// send may be granted its destination, lossy spec or not.
func TestFaultPlanNeverLends(t *testing.T) {
	const n = 16
	for _, sp := range []comm.FaultSpec{
		{Seed: 3, DelayMax: 200 * time.Microsecond},
		{Seed: 5, Drop: 0.05, Dup: 0.05},
		{Seed: 7, SlowRanks: map[int]time.Duration{2: 100 * time.Microsecond}},
	} {
		rt := New(n)
		if err := rt.SetFaults(sp); err != nil {
			t.Fatal(err)
		}
		if _, lent := runFanCascade(t, n, []*Runtime{rt}); lent != 0 {
			t.Errorf("%+v: %d sends ran their destination under a fault plan", sp, lent)
		}
	}
}

// TestCascadeDeeperThanBorrowBound: a chain of handlers far longer than
// maxBorrowDepth completes, and no link of it runs nested deeper than the
// bound — past it a sender wakes the owner instead.
func TestCascadeDeeperThanBorrowBound(t *testing.T) {
	const n, chain = 8, 200
	rt := New(n)
	var hops, deepest atomic.Int64
	rt.Register(hRingCascade, func(rc *Context, from core.Rank, data any) {
		hops.Add(1)
		for d := int64(rc.depth); ; {
			if seen := deepest.Load(); d <= seen || deepest.CompareAndSwap(seen, d) {
				break
			}
		}
		if left := data.(int); left > 0 {
			rc.Send((rc.Rank()+1)%n, hRingCascade, left-1)
		}
	})
	rt.Run(func(rc *Context) {
		rc.Epoch(func() {
			if rc.Rank() == 0 {
				rc.Send(1, hRingCascade, chain)
			}
		})
	})
	if hops.Load() != chain+1 {
		t.Errorf("%d hops, want %d", hops.Load(), chain+1)
	}
	if d := deepest.Load(); d > maxBorrowDepth {
		t.Errorf("a handler ran %d borrows deep, bound is %d", d, maxBorrowDepth)
	}
}

// TestBorrowedPanicNamesTheRankAndEndsRun: a handler that panics while
// its rank is run by a sender never releases the rank. Run must still
// return — the close has to reach the parked owner of a borrowed inbox —
// and must name the rank whose handler ran, not the borrower's.
func TestBorrowedPanicNamesTheRankAndEndsRun(t *testing.T) {
	rt := New(8)
	rt.Register(hBoom, func(rc *Context, from core.Rank, data any) { panic("boom") })
	got := make(chan any, 1)
	go func() {
		defer func() { got <- recover() }()
		rt.Run(func(rc *Context) {
			rc.Epoch(func() {
				if rc.Rank() == 0 {
					// Let the other ranks park, so that rank 3 is lent.
					time.Sleep(20 * time.Millisecond)
					rc.Send(3, hBoom, nil)
				}
			})
		})
	}()
	select {
	case p := <-got:
		if s, _ := p.(string); s != "amt: rank 3 panicked: boom" {
			t.Errorf("Run panicked with %q, want the panicking handler's rank 3", p)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run hangs after a panic in a borrowed handler")
	}
}

// TestHandlerTimeIsSelfTime: a quick handler that sends to a slow one may
// run the slow one nested inside its own Send; the slow handler's time is
// the slow rank's, not the quick one's.
func TestHandlerTimeIsSelfTime(t *testing.T) {
	const nap = 30 * time.Millisecond
	rec := obs.NewRecorder()
	rt := New(4, WithTracer(rec))
	rt.NameHandler(hQuick, "quick")
	rt.NameHandler(hSlow, "slow")
	rt.Register(hQuick, func(rc *Context, from core.Rank, data any) { rc.Send(2, hSlow, nil) })
	rt.Register(hSlow, func(rc *Context, from core.Rank, data any) { time.Sleep(nap) })
	rt.Run(func(rc *Context) {
		rc.Epoch(func() {
			if rc.Rank() == 0 {
				time.Sleep(20 * time.Millisecond) // let ranks 1 and 2 park
				rc.Send(1, hQuick, nil)
			}
		})
	})
	var quick, slow int
	for _, e := range rec.Events() {
		if e.Type != obs.EvHandler {
			continue
		}
		switch {
		case strings.HasSuffix(e.Name, "quick"):
			quick++
			if e.Rank != 1 || e.Dur >= nap/2 {
				t.Errorf("quick handler: rank %d, %v — it was charged the handler it lent to", e.Rank, e.Dur)
			}
		case strings.HasSuffix(e.Name, "slow"):
			slow++
			if e.Rank != 2 || e.Dur < nap {
				t.Errorf("slow handler: rank %d, %v, want rank 2 and at least %v", e.Rank, e.Dur, nap)
			}
		}
	}
	if quick != 1 || slow != 1 {
		t.Errorf("%d quick and %d slow handler events, want one each", quick, slow)
	}
}
