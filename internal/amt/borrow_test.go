package amt

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"temperedlb/internal/comm"
	"temperedlb/internal/core"
	"temperedlb/internal/obs"
)

const (
	hFanCascade HandlerID = 40 + iota
	hRingCascade
	hBoom
	hQuick
	hSlow
	hWave
	hEarly
)

// launch stands up a job for a test and closes it with the test.
func launch(t *testing.T, network string, n, nodes int, opts ...Option) *Job {
	t.Helper()
	job, err := Launch(network, n, nodes, 0xB0220, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(job.Close)
	return job
}

// runFanCascade runs epochs of cascading handlers on every runtime of a
// job (one per node) and returns the handler invocations and the borrows
// it saw. Each rank counts the goroutines inside its handlers and its
// epoch bodies: with borrowed execution a rank's code runs on whichever
// goroutine sent to it, and the count proves it is never two at once.
func runFanCascade(t *testing.T, n int, job *Job) (calls, lent int64) {
	t.Helper()
	inFlight := make([]atomic.Int32, n)
	enter := func(rc *Context) {
		if inFlight[rc.Rank()].Add(1) != 1 {
			t.Errorf("rank %d is run by two goroutines at once", rc.Rank())
		}
	}
	leave := func(rc *Context) { inFlight[rc.Rank()].Add(-1) }
	var nCalls, nLent atomic.Int64
	err := job.Run(func(rt *Runtime) func(*Context) error {
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
		return func(rc *Context) error {
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
			nLent.Add(rc.Stats[Lent].Load())
			return nil
		}
	})
	if err != nil {
		t.Error(err)
	}
	return nCalls.Load(), nLent.Load()
}

// TestOneGoroutineRunsARank is the ownership contract at the runtime
// level: 64 ranks, cascading handlers, every send a chance to borrow.
func TestOneGoroutineRunsARank(t *testing.T) {
	const n = 64
	calls, lent := runFanCascade(t, n, launch(t, "memory", n, 1))
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
	const n = 64
	calls, _ := runFanCascade(t, n, launch(t, "unix", n, 2))
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
		job := launch(t, "memory", n, 1)
		if err := job.Runtimes[0].SetFaults(sp); err != nil {
			t.Fatal(err)
		}
		if _, lent := runFanCascade(t, n, job); lent != 0 {
			t.Errorf("%+v: %d sends ran their destination under a fault plan", sp, lent)
		}
	}
}

// TestOwnedRankInCollectiveHoldsNextEpoch: a rank parked in a collective
// is not run for a message of the epoch its peers have entered and it has
// not. Rank x = 21 of 23 is a leaf three hops below the root, and s = 22 a
// child of the root, so s leaves each barrier well before x does and
// sends into the next epoch while x still waits for its result. None of
// those sends is a borrow (rc.Stats[Lent]; each was one before the inbox
// held them); x dispatches them after its epoch body, in the order they
// were sent, and counts each one handler call.
func TestOwnedRankInCollectiveHoldsNextEpoch(t *testing.T) {
	const n, x, s, sends, rounds = 23, 21, 22, 16, 20
	if parent, _, _, _, _ := treeShape(s, n, treeFanout); parent != 0 {
		t.Fatalf("rank %d's tree parent is %d, want the root", s, parent)
	}
	if p, _, _, _, _ := treeShape(x, n, treeFanout); p == 0 {
		t.Fatalf("rank %d is a child of the root", x)
	}
	rt := New(n)
	var inBarrier, bodyDone atomic.Bool
	next := 0 // x's, run by one goroutine at a time
	rt.Register(hEarly, func(rc *Context, from core.Rank, data any) {
		if !bodyDone.Load() {
			t.Errorf("message %d dispatched before rank %d's epoch body returned", data, x)
		}
		if data.(int) != next {
			t.Errorf("rank %d dispatched message %d, want %d (send order)", x, data, next)
		}
		next++
	})
	var xc *Context
	early, lent := 0, int64(0) // s's
	rt.Run(func(rc *Context) {
		for i := 0; i < rounds; i++ {
			if rc.Rank() == x {
				xc = rc
				bodyDone.Store(false)
				inBarrier.Store(true)
			}
			rc.Barrier()
			if rc.Rank() == x {
				inBarrier.Store(false)
			}
			rc.Epoch(func() {
				switch rc.Rank() {
				case s:
					for k := 0; k < sends; k++ {
						before, was := inBarrier.Load(), rc.Stats[Lent].Load()
						rc.Send(x, hEarly, i*sends+k)
						if before && inBarrier.Load() {
							early++
							lent += rc.Stats[Lent].Load() - was
						}
					}
				case x:
					bodyDone.Store(true)
				}
			})
		}
	})
	t.Logf("%d of %d sends made while rank %d was in the barrier", early, rounds*sends, x)
	if early == 0 {
		t.Fatalf("no send reached rank %d while it was in the barrier", x)
	}
	if lent != 0 {
		t.Errorf("%d borrows of rank %d for messages of an epoch it had not entered", lent, x)
	}
	if got := xc.Stats[HandlerCalls].Load(); got != rounds*sends || next != rounds*sends {
		t.Errorf("rank %d: %d handler calls, %d dispatched, want %d", x, got, next, rounds*sends)
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

// runWave runs one epoch on every runtime of a job (one per node) whose
// other ranks have all entered it, and by then most likely parked, before
// rank 0 lets its first wave go: an empty epoch, or with cascade one in
// which every rank starts a chain of handlers as long as the borrow bound
// is deep. It returns every rank's context, to be read once Run is over.
func runWave(t *testing.T, n int, job *Job, cascade bool) []*Context {
	t.Helper()
	var entered atomic.Int64
	err := job.Run(func(rt *Runtime) func(*Context) error {
		rt.Register(hWave, func(rc *Context, from core.Rank, data any) {
			if left := data.(int); left > 0 {
				rc.Send((rc.Rank()+1)%core.Rank(n), hWave, left-1)
			}
		})
		return func(rc *Context) error {
			rc.Epoch(func() {
				if entered.Add(1); rc.Rank() == 0 {
					for entered.Load() < int64(n) {
						time.Sleep(100 * time.Microsecond)
					}
					time.Sleep(10 * time.Millisecond)
				}
				if cascade {
					rc.Send((rc.Rank()+1)%core.Rank(n), hWave, 2*maxBorrowDepth)
				}
			})
			return nil
		}
	})
	if err != nil {
		t.Error(err)
	}
	var ranks []*Context
	for _, rt := range job.Runtimes {
		for i := range rt.ranks {
			ranks = append(ranks, rt.ranks[i].Load())
		}
	}
	return ranks
}

// checkWave holds a finished job to what following the token promises:
// no hop was ever pushed from the borrow bound to wake its receiver, no
// rank handled a token nested deeper than deepest, and some goroutine ran
// more ranks than the bound is deep — ranks that nested hops could not
// have reached without a wake-up.
func checkWave(t *testing.T, ranks []*Context, deepest int) {
	t.Helper()
	longest := 0
	for _, rc := range ranks {
		if rc.tokenWoke != 0 {
			t.Errorf("rank %d pushed %d token hops from the borrow bound", rc.rank, rc.tokenWoke)
		}
		if rc.tokenDepth > deepest {
			t.Errorf("rank %d handled a token %d borrows deep, want at most %d", rc.rank, rc.tokenDepth, deepest)
		}
		longest = max(longest, int(rc.Stats[Lent].Load()))
	}
	if want := min(len(ranks)-1, maxBorrowDepth+1); longest < want {
		t.Errorf("no rank ran more than %d others, want %d: the wave was not followed", longest, want)
	}
}

// TestWaveIsFollowedNotNested: a wave over parked ranks is a loop on one
// goroutine, one borrow below the rank that started it — in an empty
// epoch every token is handled at depth 1 at most — where nested hops fell
// back to a wake-up at every fifth rank of the ring. User cascades still
// nest to the bound, and a token met down there is followed at that depth.
func TestWaveIsFollowedNotNested(t *testing.T) {
	for _, n := range []int{5, 64, 1024} {
		job := launch(t, "memory", n, 1)
		rt := job.Runtimes[0]
		checkWave(t, runWave(t, n, job, false), 1)
		// Followed or not, a hop is a transport message: an empty epoch is
		// one trip round the ring, and the transport counted all of it.
		if hops := rt.nw.Stats().Sent[kindToken]; hops != int64(n) {
			t.Errorf("%d ranks: the transport counted %d token messages, want %d", n, hops, n)
		}
		checkWave(t, runWave(t, n, launch(t, "memory", n, 1), true), maxBorrowDepth)
	}
}

// releasedBeforeHop is a tracer that, whenever a rank hands the token on,
// looks at the rank it had the token from.
type releasedBeforeHop struct {
	t  *testing.T
	rt *Runtime
}

func (p *releasedBeforeHop) Emit(e obs.Event) {
	if e.Type != obs.EvTokenRound || e.Rank == 0 {
		return // rank 0 starts the wave: it had the token from nobody
	}
	if from := p.rt.ranks[(e.Rank+1)%p.rt.n].Load(); from.depth != 0 {
		p.t.Errorf("rank %d holds the token while rank %d, which sent it, is still borrowed", e.Rank, from.rank)
	}
}

// TestHopIsMadeAfterRelease: the goroutine following a wave lets a rank
// go before it makes the rank's hop, so it never holds two ranks.
func TestHopIsMadeAfterRelease(t *testing.T) {
	const n = 16
	tr := &releasedBeforeHop{t: t}
	job := launch(t, "memory", n, 1, WithTracer(tr))
	tr.rt = job.Runtimes[0]
	checkWave(t, runWave(t, n, job, false), 1)
}

// TestWaveResumesAcrossNodes: on a two-node unix cluster the hops 0→63
// and 32→31 cross the socket; the wave is not followed through it — the
// reader's push wakes one owner, and that owner follows it on from there.
func TestWaveResumesAcrossNodes(t *testing.T) {
	const n = 64
	for _, cascade := range []bool{false, true} {
		ranks := runWave(t, n, launch(t, "unix", n, 2), cascade)
		deepest := 1
		if cascade {
			deepest = maxBorrowDepth
		}
		checkWave(t, ranks[:n/2], deepest)
		checkWave(t, ranks[n/2:], deepest)
	}
}

// TestOneRankRing: with one rank the ring predecessor is the rank itself,
// which is running and cannot be claimed: the hop is a push to its own
// inbox, and epochs — empty or cascading onto itself — still terminate.
func TestOneRankRing(t *testing.T) {
	job := launch(t, "memory", 1, 1)
	rt := job.Runtimes[0]
	checkWave(t, runWave(t, 1, job, false), 0)
	if got := rt.ranks[0].Load().Stats[EpochsRun].Load(); got != 1 {
		t.Errorf("%d epochs run, want 1", got)
	}
	job = launch(t, "memory", 1, 1)
	rt = job.Runtimes[0]
	checkWave(t, runWave(t, 1, job, true), 0)
	if sent := rt.ranks[0].Load().Stats[UserSent].Load(); sent != 2*maxBorrowDepth+1 {
		t.Errorf("%d user sends, want %d", sent, 2*maxBorrowDepth+1)
	}
}

// panicOnToken is a tracer that panics when rank hands the token on: user
// code that runs inside a rank's turn with no message sent to the rank.
type panicOnToken struct{ rank int }

func (p panicOnToken) Emit(e obs.Event) {
	if e.Type == obs.EvTokenRound && e.Rank == p.rank {
		panic("boom")
	}
}

// TestBorrowedPanicNamesTheRankAndEndsRun: code that panics while its
// rank is run by a sender never releases the rank. Run must still return
// — the close has to reach the parked owner of a borrowed inbox — and must
// name the rank that ran, not the borrower's: the rank a handler was sent
// to, or one the borrower reached four hops into following a token.
func TestBorrowedPanicNamesTheRankAndEndsRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		rt   *Runtime
		send bool
	}{
		{"sent to", New(8), true},
		{"followed to", New(8, WithTracer(panicOnToken{rank: 3})), false},
	} {
		rt, name := tc.rt, tc.name
		rt.Register(hBoom, func(rc *Context, from core.Rank, data any) { panic("boom") })
		got := make(chan any, 1)
		go func() {
			defer func() { got <- recover() }()
			rt.Run(func(rc *Context) {
				rc.Epoch(func() {
					if rc.Rank() == 0 {
						// Let the other ranks park, so that rank 3 is lent.
						time.Sleep(20 * time.Millisecond)
						if tc.send {
							rc.Send(3, hBoom, nil)
						}
					}
				})
			})
		}()
		select {
		case p := <-got:
			if s, _ := p.(string); s != "amt: rank 3 panicked: boom" {
				t.Errorf("%s: Run panicked with %q, want the panicking rank 3", name, p)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: Run hangs after a panic in a borrowed rank", name)
		}
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
