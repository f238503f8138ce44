package amt

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"temperedlb/internal/comm"
)

// keptOps gives element j of a mixed reduce its own combine, so one
// vector exercises all three folds.
func keptOps(width int) []ReduceOp {
	ops := make([]ReduceOp, width)
	for j := range ops {
		ops[j] = []ReduceOp{ReduceSum, ReduceMax, ReduceMin}[j%3]
	}
	return ops
}

// keptInput is rank r's contribution to element j of collective c:
// small integers, so every fold is exact and the expected value is a
// closed form.
func keptInput(r, j, c int) float64 { return float64(100*r + j + 7*c) }

// keptWant is what keptInput reduces to across n ranks under op.
func keptWant(n, j, c int, op ReduceOp) float64 {
	switch op {
	case ReduceMax:
		return keptInput(n-1, j, c)
	case ReduceMin:
		return keptInput(0, j, c)
	default:
		return float64(100*n*(n-1)/2 + n*(j+7*c))
	}
}

// TestChaosKeptResultsOutliveLaterCollectives: a collective's result is
// one read-only slice every rank of the node shares, and each rank folds
// into one partial reused from one collective to the next. So every rank
// keeps the results of a run of collectives of several widths and kinds
// — mixed and single-op vector reduces, scalar reduces, barriers, an
// all-gather — and only after the last one checks each kept slice. A root
// that returned its partial would find its kept results overwritten; a
// child that reused its partial before its parent folded it would
// corrupt a sum. Delays and stragglers hold partials and results in
// flight, and the socket cluster encodes them on a writer goroutine.
func TestChaosKeptResultsOutliveLaterCollectives(t *testing.T) {
	delayed := comm.FaultSpec{
		Seed: 0xC011, DelayMax: 300 * time.Microsecond,
		SlowRanks: map[int]time.Duration{2: time.Millisecond, 9: 500 * time.Microsecond},
	}
	for _, tc := range []struct {
		name, network string
		nodes         int
		faults        comm.FaultSpec
	}{
		{"memory", "memory", 1, comm.FaultSpec{}},
		{"unix", "unix", 2, comm.FaultSpec{}},
		{"memory-delayed", "memory", 1, delayed},
		{"unix-delayed", "unix", 2, delayed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n, rounds = 13, 3
			job := launch(t, tc.network, n, tc.nodes)
			for _, rt := range job.Runtimes {
				if err := rt.SetFaults(tc.faults); err != nil {
					t.Fatal(err)
				}
			}
			err := job.Run(func(*Runtime) func(*Context) error {
				return func(rc *Context) error {
					r := int(rc.Rank())
					type kept struct {
						got []float64
						c   int        // the collective's index, keptInput's c
						ops []ReduceOp // per element
					}
					var all []kept
					c := 0
					vector := func(width int, mixed bool) {
						c++
						in := make([]float64, width)
						for j := range in {
							in[j] = keptInput(r, j, c)
						}
						ops := keptOps(width)
						var got []float64
						if mixed {
							got = rc.AllReduceMixed(in, ops)
						} else {
							got = rc.AllReduceVec(in, ReduceSum)
							ops = make([]ReduceOp, width) // all ReduceSum
						}
						all = append(all, kept{got, c, ops})
					}
					var gathered [][]float64
					for round := 0; round < rounds; round++ {
						for _, width := range []int{1, 10, 76} {
							vector(width, true)
							vector(width, false)
							if s := rc.AllReduce(float64(r), ReduceSum); s != n*(n-1)/2 {
								return fmt.Errorf("round %d: scalar sum %g", round, s)
							}
							rc.Barrier()
						}
						if round == 1 {
							gathered = append(gathered, rc.AllGather(float64(3*r+round)))
						}
					}
					for _, k := range all {
						for j, v := range k.got {
							if want := keptWant(n, j, k.c, k.ops[j]); v != want {
								return fmt.Errorf("collective %d (width %d), element %d: %g, want %g",
									k.c, len(k.got), j, v, want)
							}
						}
					}
					for _, g := range gathered {
						for s, v := range g {
							if want := float64(3*s + 1); v != want {
								return fmt.Errorf("all-gather slot %d: %g, want %g", s, v, want)
							}
						}
					}
					return nil
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCollectiveAllocatesPerNode: a watched-width reduce on a 1024-rank
// job allocates the root's one result and the one message that carries
// it down the tree — O(1) per node — not a partial, a result copy and
// their boxes on every rank. Before the partial was reused and the
// result shared, one such collective allocated ≈ 1.3 MB (≈ 1.3 KB per
// rank). It now measures ≈ 2 KB: the root's 640 bytes, plus inbox
// queues growing to their burst size once, spread over the calls. The
// gate, 8 KB, is 8 bytes per rank: below the smallest allocation any
// rank could make per collective, four times what is measured.
//
// An all-gather ships each subtree's range, not a P-wide partial, and a
// rank below the root folds its range into a partial sized for it at
// the first gather and kept: a call allocates the root's result, 8 KB at
// 1024 ranks, and its down message, ≈ 8.2 KB measured. The gate, 16 KB,
// is twice that. Regrowing each range per call, as appending the
// children's ranges to a one-wide partial did, reads ≈ 56 KB, and
// folding P-wide partials ≈ 8.4 MB.
func TestCollectiveAllocatesPerNode(t *testing.T) {
	const n, width, calls = 1024, 76, 50
	ops := keptOps(width)
	var reduce, gather uint64
	New(n).Run(func(rc *Context) {
		// perCall is what the node allocates per call of op, read on
		// rank 0, the root: it leaves the barrier only once every rank
		// has entered it, so every call before it is done.
		perCall := func(op func()) uint64 {
			var before, after runtime.MemStats
			if rc.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			for i := 0; i < calls; i++ {
				op()
			}
			rc.Barrier()
			if rc.Rank() == 0 {
				runtime.ReadMemStats(&after)
			}
			return (after.TotalAlloc - before.TotalAlloc) / calls
		}
		in := make([]float64, width)
		for j := range in {
			in[j] = keptInput(int(rc.Rank()), j, 0)
		}
		rc.AllReduceMixed(in, ops) // every rank's buffers reach their size
		rc.AllGather(1)
		rc.Barrier()
		r := perCall(func() { rc.AllReduceMixed(in, ops) })
		g := perCall(func() { rc.AllGather(1) })
		if rc.Rank() == 0 {
			reduce, gather = r, g
		}
	})
	if reduce > 8<<10 {
		t.Errorf("a width-%d reduce over %d ranks allocates %d B per call, want ≤ 8192 (O(1) per node)",
			width, n, reduce)
	}
	if gather > 16<<10 {
		t.Errorf("an all-gather over %d ranks allocates %d B per call, want ≤ 16384 (the root's result; every range kept)",
			n, gather)
	}
	t.Logf("per call over %d ranks: width-%d reduce %d B, all-gather %d B", n, width, reduce, gather)
}
