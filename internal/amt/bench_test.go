package amt

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"temperedlb/internal/core"
)

// sinkVec keeps a benchmarked collective's result alive.
var sinkVec []float64

// benchRanks runs op b.N times back to back on every rank of an n-rank
// in-memory runtime. ns/op is the mean with the runtime's construction
// and rank start in it (they amortise as b.N grows); p50-us/op is rank
// 0's median call, timed call by call inside the run.
func benchRanks(b *testing.B, n int, op func(rc *Context)) {
	took := make([]time.Duration, 0, b.N) // rank 0's alone
	New(n).Run(func(rc *Context) {
		rc.Barrier()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			op(rc)
			if rc.Rank() == 0 {
				took = append(took, time.Since(start))
			}
		}
	})
	slices.Sort(took)
	b.ReportMetric(float64(took[len(took)/2])/1e3, "p50-us/op")
}

// BenchmarkEmptyEpoch is the floor under every inform and transfer stage:
// an epoch nobody sends in, so all of it is one termination wave and the
// done broadcast.
func BenchmarkEmptyEpoch(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			benchRanks(b, n, func(rc *Context) { rc.Epoch(func() {}) })
		})
	}
}

// hNop is BenchmarkLentSend's handler: it does nothing, so what is timed
// is the runtime's and the transport's share of a message.
const hNop HandlerID = 60

// BenchmarkLentSend is one message lent to a parked rank, the path most of
// the paper case's gossip messages take: rank 0 sends to rank 1, parked in
// a barrier, so one op is the claim, the dispatch of an empty handler, the
// turn whose RecvBatch finds the inbox empty, and the release that wakes
// nobody. The sends before the timer starts wait for rank 1 to park: the
// first lent one proves it has. lent/op reads 1 when every timed send was
// lent.
func BenchmarkLentSend(b *testing.B) {
	rt := New(2)
	rt.Register(hNop, func(*Context, core.Rank, any) {})
	var lent int64
	rt.Run(func(rc *Context) {
		rc.Barrier()
		if rc.Rank() == 0 {
			for rc.Stats[Lent].Load() == 0 {
				rc.Send(1, hNop, nil)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rc.Send(1, hNop, nil)
			}
			b.StopTimer()
			lent = rc.Stats[Lent].Load() - 1
		}
		rc.Barrier()
	})
	b.ReportMetric(float64(lent)/float64(b.N), "lent/op")
}

// BenchmarkAllReduceMixed is the collective each balancer iteration ends
// with, at its width: ten values, sums and maxima mixed.
func BenchmarkAllReduceMixed(b *testing.B) {
	ops := []ReduceOp{ReduceSum, ReduceSum, ReduceSum, ReduceSum, ReduceSum,
		ReduceMax, ReduceMax, ReduceMax, ReduceMax, ReduceMax}
	vals := make([]float64, len(ops)) // every rank's input: read, never kept
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			benchRanks(b, n, func(rc *Context) {
				if out := rc.AllReduceMixed(vals, ops); rc.Rank() == 0 {
					sinkVec = out
				}
			})
		})
	}
}
