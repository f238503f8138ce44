package amt

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"temperedlb/internal/comm"
	"temperedlb/internal/core"
)

// withFanout builds the collective tree at arity k instead of treeFanout,
// so the geometry tests reach shapes no job runs.
func withFanout(k int) Option {
	return func(rt *Runtime) { rt.fanout = k }
}

// TestTreeGeometry pins the k-ary tree layout the collectives ride:
// parent/child relations must be mutually consistent, the recorded depth
// must equal the longest walk to the root, and the per-collective send
// count of every rank must stay within the advertised
// fanout·ceil(log_fanout P) bound.
func TestTreeGeometry(t *testing.T) {
	cases := []struct {
		n, k, wantDepth int
	}{
		{1, 4, 0}, {2, 4, 1}, {5, 4, 1}, {6, 4, 2}, {16, 4, 2},
		{21, 4, 2}, {64, 4, 3}, {7, 2, 2}, {8, 2, 3}, {10, 3, 2},
	}
	for _, c := range cases {
		rt := New(c.n, withFanout(c.k))
		if rt.Fanout() != c.k {
			t.Fatalf("n=%d: Fanout() = %d, want %d", c.n, rt.Fanout(), c.k)
		}
		bound := 0
		for p := 1; p < c.n; p *= c.k {
			bound += c.k
		}
		var mu sync.Mutex
		parents := make([]int, c.n)
		rt.Run(func(rc *Context) {
			r := int(rc.Rank())
			wantParent := -1
			if r > 0 {
				wantParent = (r - 1) / c.k
			}
			mu.Lock()
			if rc.parent != wantParent {
				t.Errorf("n=%d k=%d rank %d: parent %d, want %d", c.n, c.k, r, rc.parent, wantParent)
			}
			parents[r] = rc.parent
			if rc.nKids < 0 || rc.nKids > c.k {
				t.Errorf("n=%d k=%d rank %d: %d children", c.n, c.k, r, rc.nKids)
			}
			for ch := rc.childBase; ch < rc.childBase+rc.nKids; ch++ {
				if ch <= r || ch >= c.n {
					t.Errorf("n=%d k=%d rank %d: child %d out of range", c.n, c.k, r, ch)
				}
				if (ch-1)/c.k != r {
					t.Errorf("n=%d k=%d: rank %d claims child %d whose parent is %d",
						c.n, c.k, r, ch, (ch-1)/c.k)
				}
			}
			if rc.treeDepth != c.wantDepth {
				t.Errorf("n=%d k=%d rank %d: depth %d, want %d", c.n, c.k, r, rc.treeDepth, c.wantDepth)
			}
			wantMsgs := rc.nKids
			if r > 0 {
				wantMsgs++
			}
			if rc.collMsgs != wantMsgs || (c.n > 1 && rc.collMsgs > bound) {
				t.Errorf("n=%d k=%d rank %d: collMsgs %d, want %d within bound %d",
					c.n, c.k, r, rc.collMsgs, wantMsgs, bound)
			}
			mu.Unlock()
			// The collectives must actually work on this geometry.
			if sum := rc.AllReduce(float64(r), ReduceSum); sum != float64(c.n*(c.n-1)/2) {
				t.Errorf("n=%d k=%d rank %d: allreduce sum %g", c.n, c.k, r, sum)
			}
		})
		// Every rank's parent chain must reach rank 0 within wantDepth hops.
		for r := 0; r < c.n; r++ {
			hops, cur := 0, r
			for cur > 0 {
				cur = parents[cur]
				hops++
			}
			if hops > c.wantDepth {
				t.Errorf("n=%d k=%d rank %d: %d hops to root, depth says %d",
					c.n, c.k, r, hops, c.wantDepth)
			}
		}
	}
}

// TestAllGather checks the one-hot-sum gather: every rank must receive
// the full by-rank vector with each slot bit-exact (x + 0 is exact, so
// riding the sum tree cannot perturb the values).
func TestAllGather(t *testing.T) {
	const n = 13
	rt := New(n, withFanout(3))
	rt.Run(func(rc *Context) {
		got := rc.AllGather(1.5*float64(rc.Rank()) + 0.25)
		if len(got) != n {
			t.Errorf("rank %d: gathered %d values", rc.Rank(), len(got))
			return
		}
		for r := 0; r < n; r++ {
			if want := 1.5*float64(r) + 0.25; got[r] != want {
				t.Errorf("rank %d: slot %d = %g, want %g", rc.Rank(), r, got[r], want)
			}
		}
	})
}

// TestChaosTreeCollectiveStorm1024 is the paper-scale collective stress:
// 1024 ranks hammer the tree with barriers, vector reduces and a scalar
// max while the transport duplicates and drops 10% of the interleaved
// epoch traffic and smears every delivery (collective hops included)
// over a delay window. Every reduction must come back exact on every
// rank and the epoch traffic must still be delivered exactly once.
func TestChaosTreeCollectiveStorm1024(t *testing.T) {
	const n, rounds = 1024, 2
	rt := New(n)
	if err := rt.SetFaults(comm.FaultSpec{
		Seed: 9, Drop: 0.1, Dup: 0.1,
		DelayMax: 200 * time.Microsecond,
	}); err != nil {
		t.Fatal(err)
	}
	var pokes atomic.Int64
	rt.Register(hPing, func(rc *Context, from core.Rank, data any) {
		pokes.Add(1)
	})
	rt.Run(func(rc *Context) {
		for round := 0; round < rounds; round++ {
			rc.Barrier()
			vec := rc.AllReduceVec([]float64{1, float64(rc.Rank())}, ReduceSum)
			if vec[0] != n || vec[1] != n*(n-1)/2 {
				t.Errorf("rank %d round %d: vector reduce [%g %g]", rc.Rank(), round, vec[0], vec[1])
			}
			if max := rc.AllReduce(float64(rc.Rank()), ReduceMax); max != n-1 {
				t.Errorf("rank %d round %d: max %g", rc.Rank(), round, max)
			}
			rc.Epoch(func() {
				rc.Send((rc.Rank()+1)%n, hPing, round)
			})
		}
	})
	if pokes.Load() != rounds*n {
		t.Errorf("delivered %d pokes, want %d", pokes.Load(), rounds*n)
	}
	st := rt.FaultStats()
	if st.Dropped == 0 || st.Duplicated == 0 || st.Retries == 0 {
		t.Errorf("fault plan injected nothing at scale: %+v", st)
	}
}
