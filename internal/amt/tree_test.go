package amt

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"temperedlb/internal/comm"
	"temperedlb/internal/comm/wire"
	"temperedlb/internal/core"
)

// withFanout builds the collective tree at arity k instead of treeFanout,
// so the geometry tests reach shapes no job runs.
func withFanout(k int) Option {
	return func(rt *Runtime) { rt.fanout = k }
}

// subtreeSizes returns every rank's subtree size in the tree treeShape
// builds: ranks are walked from the last, and a parent is always a lower
// rank, so each size is complete before its parent adds it.
func subtreeSizes(n, k int) (parents, sizes []int) {
	parents, sizes = make([]int, n), make([]int, n)
	for r := n - 1; r >= 0; r-- {
		parents[r], _, _, _, _ = treeShape(r, n, k)
		sizes[r]++
		if parents[r] >= 0 {
			sizes[parents[r]] += sizes[r]
		}
	}
	return parents, sizes
}

// crossingEdges counts the tree edges whose two ends lie on different
// nodes when n ranks are split over nodes by wire.SplitRanks: each one
// carries a collective's partial up and its result down over a socket.
func crossingEdges(n, k, nodes int) int {
	bounds := wire.SplitRanks(n, nodes)
	node := func(r int) int {
		m := 0
		for bounds[m+1] <= r {
			m++
		}
		return m
	}
	edges := 0
	for r := 1; r < n; r++ {
		if p, _, _, _, _ := treeShape(r, n, k); node(p) != node(r) {
			edges++
		}
	}
	return edges
}

// TestTreeGeometry pins the k-ary tree layout the collectives ride: the
// complete tree numbered depth-first. Parent/child relations must be
// mutually consistent, a parent must be a lower rank, the children must
// ascend at a stride equal to a full child's subtree size, every rank's
// descendants must be exactly the range [r, r+size), the recorded depth
// must equal the longest walk to the root, and the per-collective send
// count of every rank must stay within the advertised fanout·ceil(log_fanout
// P) bound. Because subtrees are ranges, a node's contiguous share of the
// ranks meets the rest of the tree through few edges: at most k·depth per
// node boundary.
func TestTreeGeometry(t *testing.T) {
	cases := []struct {
		n, k, wantDepth int
	}{
		{1, 4, 0}, {2, 4, 1}, {5, 4, 1}, {6, 4, 2}, {16, 4, 2},
		{21, 4, 2}, {64, 4, 3}, {7, 2, 2}, {8, 2, 3}, {10, 3, 2},
		{13, 3, 2}, {100, 4, 4}, {256, 4, 4}, {1000, 4, 5}, {4096, 4, 6},
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
		parents, sizes := subtreeSizes(c.n, c.k)
		if sizes[0] != c.n {
			t.Errorf("n=%d k=%d: the root's subtree holds %d ranks", c.n, c.k, sizes[0])
		}
		var mu sync.Mutex
		rt.Run(func(rc *Context) {
			r := int(rc.Rank())
			mu.Lock()
			if rc.parent != parents[r] || (r == 0) != (rc.parent < 0) || rc.parent >= r {
				t.Errorf("n=%d k=%d rank %d: parent %d", c.n, c.k, r, rc.parent)
			}
			if rc.nKids < 0 || rc.nKids > c.k {
				t.Errorf("n=%d k=%d rank %d: %d children", c.n, c.k, r, rc.nKids)
			}
			// The children are consecutive runs of [r+1, r+size): full
			// ones of stride ranks, the last one no longer.
			next := r + 1
			for i := 0; i < rc.nKids; i++ {
				ch := rc.child(i)
				if ch != next || ch >= c.n || parents[ch] != r {
					t.Errorf("n=%d k=%d rank %d: child %d is %d, want %d (its parent %d)",
						c.n, c.k, r, i, ch, next, parents[min(ch, c.n-1)])
					break
				}
				if sizes[ch] > rc.stride || (i < rc.nKids-1 && sizes[ch] != rc.stride) {
					t.Errorf("n=%d k=%d rank %d: child %d's subtree has %d ranks at stride %d",
						c.n, c.k, r, ch, sizes[ch], rc.stride)
				}
				next += sizes[ch]
			}
			if rc.size != sizes[r] {
				t.Errorf("n=%d k=%d rank %d: size %d, subtree has %d ranks", c.n, c.k, r, rc.size, sizes[r])
			}
			if next != r+sizes[r] {
				t.Errorf("n=%d k=%d rank %d: children cover [%d, %d), subtree is [%d, %d)",
					c.n, c.k, r, r+1, next, r, r+sizes[r])
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
		// Every rank lies in the range of each of its ancestors, whose
		// sizes count their descendants, so r's descendants are exactly
		// [r, r+size). Every parent chain reaches rank 0 within wantDepth
		// hops, and some chain takes all of them.
		deepest := 0
		for r := 0; r < c.n; r++ {
			hops := 0
			for a := parents[r]; a >= 0; a = parents[a] {
				if r < a || r >= a+sizes[a] {
					t.Errorf("n=%d k=%d: rank %d lies outside its ancestor %d's range [%d, %d)",
						c.n, c.k, r, a, a, a+sizes[a])
				}
				hops++
			}
			deepest = max(deepest, hops)
		}
		if deepest != c.wantDepth {
			t.Errorf("n=%d k=%d: the deepest rank is %d hops from the root, depth says %d",
				c.n, c.k, deepest, c.wantDepth)
		}
		for m := 1; m <= min(c.n, 16); m++ {
			if e, most := crossingEdges(c.n, c.k, m), (m-1)*c.k*c.wantDepth; e > most {
				t.Errorf("n=%d k=%d over %d nodes: %d tree edges cross a node boundary, want at most %d",
					c.n, c.k, m, e, most)
			}
		}
	}
	// The jobs of the benchmark's socket workloads, and 4 096 ranks over
	// four processes.
	for _, c := range []struct{ n, nodes, want int }{{64, 2, 4}, {256, 2, 4}, {4096, 4, 11}} {
		if e := crossingEdges(c.n, treeFanout, c.nodes); e != c.want {
			t.Errorf("%d ranks over %d nodes: %d crossing tree edges, want %d", c.n, c.nodes, e, c.want)
		}
	}
}

// TestTreeHasTheHeapsInternalRanks: numbering depth-first keeps the tree
// about as bushy as the heap. A rank with children is one more rank that
// folds before its parent can, and the heap has the fewest of them,
// ⌈(P−1)/k⌉; the depth-first tree has at most 4 more for every P up to
// 5 000, and exactly as many at the paper's 4 096.
func TestTreeHasTheHeapsInternalRanks(t *testing.T) {
	// A subtree's shape is a function of its size: the root's full runs
	// are alike, and the last run is a smaller tree.
	var internalRanks func(size int) int
	internalRanks = func(size int) int {
		if size <= 1 {
			return 0
		}
		_, stride, _, _, _ := treeShape(0, size, treeFanout)
		full, last := (size-1)/stride, (size-1)%stride
		return 1 + full*internalRanks(stride) + internalRanks(last)
	}
	for n := 1; n <= 5000; n++ {
		internal := internalRanks(n)
		heap := (n - 1 + treeFanout - 1) / treeFanout
		if internal < heap || internal > heap+4 || (n == 4096 && internal != heap) {
			t.Fatalf("%d ranks: %d internal ranks, the heap has %d", n, internal, heap)
		}
	}
}

// gatherInput is rank r's all-gather value: non-dyadic, and negative
// zero on rank 1, which no sum with +0 could carry (−0 + 0 is +0).
func gatherInput(r int) float64 {
	if r == 1 {
		return math.Copysign(0, -1)
	}
	return treeInput(r, 0)
}

// checkGathered reports the first slot of got that is not gatherInput's
// bits, or a vector that is not n wide.
func checkGathered(got []float64, n int) error {
	if len(got) != n {
		return fmt.Errorf("gathered %d values, want %d", len(got), n)
	}
	for s, v := range got {
		if want := gatherInput(s); math.Float64bits(v) != math.Float64bits(want) {
			return fmt.Errorf("slot %d = %v, want %v", s, v, want)
		}
	}
	return nil
}

// TestAllGather: the gather concatenates subtree ranges, so every rank
// receives the by-rank vector with each slot's bits untouched, on
// complete trees (5 and 21 at k = 4, 13 at k = 3) and ragged ones alike.
func TestAllGather(t *testing.T) {
	for _, k := range []int{3, 4} {
		for _, n := range []int{1, 2, 5, 13, 21, 100, 1000} {
			New(n, withFanout(k)).Run(func(rc *Context) {
				if err := checkGathered(rc.AllGather(gatherInput(int(rc.Rank()))), n); err != nil {
					t.Errorf("n=%d k=%d rank %d: %v", n, k, rc.Rank(), err)
				}
			})
		}
	}
}

// TestAllGatherRejectsAMalformedRange: a range may come from another
// process's frame, so a gather that does not add up to one value per
// rank panics at the root, naming the collective and both counts. Rank 5
// of 13 puts a short range, then a long one, on its parent.
func TestAllGatherRejectsAMalformedRange(t *testing.T) {
	for _, c := range []struct {
		own  []float64
		want string
	}{
		{[]float64{}, "amt: allgather length mismatch: 12 vs 13"},
		{[]float64{5, 5}, "amt: allgather length mismatch: 14 vs 13"},
	} {
		func() {
			defer func() {
				if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), c.want) {
					t.Errorf("a %d-value range from rank 5: panic %v, want %q", len(c.own), p, c.want)
				}
			}()
			New(13, withFanout(3)).Run(func(rc *Context) {
				if rc.Rank() == 5 {
					rc.treeCollective("allgather", c.own, reduceConcat, nil)
				} else {
					rc.AllGather(1)
				}
			})
		}()
	}
}

// TestChaosTreeCollectiveStorm1024 is the paper-scale collective stress:
// 1024 ranks hammer the tree with barriers, vector reduces, a scalar
// max and an all-gather while the transport duplicates and drops 10% of
// the interleaved epoch traffic and smears every delivery (collective
// hops included) over a delay window. Every reduction must come back
// exact on every rank, every gathered slot bit for bit, and the epoch
// traffic must still be delivered exactly once.
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
			if err := checkGathered(rc.AllGather(gatherInput(int(rc.Rank()))), n); err != nil {
				t.Errorf("rank %d round %d: all-gather: %v", rc.Rank(), round, err)
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

// treeInput is rank r's non-dyadic contribution to element j: thirds and
// sevenths round, so a sum's last bits depend on the order it is folded in.
func treeInput(r, j int) float64 { return 1/float64(3+j) + float64(r)/7 }

// treeFold is the reduction the tree owes of treeInput over n ranks:
// each rank folds its own value first, then its children's partials in
// ascending rank order.
func treeFold(n, width int, ops []ReduceOp) []float64 {
	var fold func(r int) []float64
	fold = func(r int) []float64 {
		acc := make([]float64, width)
		for j := range acc {
			acc[j] = treeInput(r, j)
		}
		_, stride, nKids, _, _ := treeShape(r, n, treeFanout)
		for i := 0; i < nKids; i++ {
			for j, v := range fold(r + 1 + i*stride) {
				acc[j] = ops[j].combine(acc[j], v)
			}
		}
		return acc
	}
	return fold(0)
}

// TestSocketCollectiveCostsItsCrossingEdges: a collective puts one frame
// on a socket per tree edge between two nodes in each direction — the
// partial up, the result down — and nothing for the ranks behind them.
// The frames of ten more 10-wide mixed reduces are counted on unix jobs
// whose node shares are contiguous rank ranges: 8, 8 and 22 per reduce
// on these three. And whatever the node split, the reduction folds in
// the tree's order alone: a non-dyadic vector reduces to the same bits
// on memory and on 2, 3 and 4 unix nodes as the tree's own fold
// computed here. An all-gather's up message is a subtree's range, so on
// the same splits it gathers the same bits as memory, at the same two
// frames per crossing edge.
func TestSocketCollectiveCostsItsCrossingEdges(t *testing.T) {
	const width = 10
	ops := keptOps(width)
	reduce := func(rc *Context) []float64 {
		in := make([]float64, width)
		for j := range in {
			in[j] = treeInput(int(rc.Rank()), j)
		}
		return rc.AllReduceMixed(in, ops)
	}
	gather := func(rc *Context) []float64 { return rc.AllGather(gatherInput(int(rc.Rank()))) }
	run := func(network string, n, nodes, calls int, collective func(*Context) []float64) (results [][]float64, frames int64) {
		job := launch(t, network, n, nodes)
		results = make([][]float64, n)
		err := job.Run(func(*Runtime) func(*Context) error {
			return func(rc *Context) error {
				for c := 0; c < calls; c++ {
					results[rc.Rank()] = collective(rc)
				}
				return nil
			}
		})
		if err != nil {
			t.Fatalf("%s job of %d ranks on %d nodes: %v", network, n, nodes, err)
		}
		return results, job.Stats().Wire.FramesOut
	}
	// framesForTen is what ten more calls of collective cost on sockets.
	framesForTen := func(n, nodes int, collective func(*Context) []float64) int64 {
		_, one := run("unix", n, nodes, 1, collective)
		_, eleven := run("unix", n, nodes, 11, collective)
		return eleven - one
	}
	for _, c := range []struct{ n, nodes, frames int }{{64, 2, 8}, {256, 2, 8}, {64, 4, 22}} {
		if e := crossingEdges(c.n, treeFanout, c.nodes); 2*e != c.frames {
			t.Errorf("%d ranks on %d nodes: %d crossing tree edges, want %d", c.n, c.nodes, e, c.frames/2)
		}
		if f := framesForTen(c.n, c.nodes, reduce); f != 10*int64(c.frames) {
			t.Errorf("%d ranks on %d unix nodes: %d frames for ten reduces, want %d per reduce",
				c.n, c.nodes, f, c.frames)
		}
	}

	const n = 64
	want := treeFold(n, width, ops)
	differs := false
	for j, op := range ops {
		sequential := treeInput(0, j)
		for r := 1; r < n; r++ {
			sequential = op.combine(sequential, treeInput(r, j))
		}
		differs = differs || sequential != want[j]
	}
	if !differs {
		t.Fatal("the inputs fold to the same bits in rank order: they cannot tell fold orders apart")
	}
	for _, nodes := range []int{1, 2, 3, 4} {
		network := "unix"
		if nodes == 1 {
			network = "memory"
		}
		results, _ := run(network, n, nodes, 1, reduce)
		for r, got := range results {
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s, %d nodes, rank %d: element %d reduced to %v, the tree's fold is %v",
						network, nodes, r, j, got[j], want[j])
				}
			}
		}
		gathered, _ := run(network, n, nodes, 1, gather)
		for r, got := range gathered {
			if err := checkGathered(got, n); err != nil {
				t.Fatalf("%s, %d nodes, rank %d: all-gather: %v", network, nodes, r, err)
			}
		}
		if nodes == 1 {
			continue
		}
		if f, e := framesForTen(n, nodes, gather), crossingEdges(n, treeFanout, nodes); f != 20*int64(e) {
			t.Errorf("%d ranks on %d unix nodes: %d frames for ten all-gathers, want 2 per crossing edge (%d)",
				n, nodes, f, 2*e)
		}
	}
}
