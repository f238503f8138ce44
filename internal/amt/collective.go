package amt

import (
	"fmt"
	"math"

	"temperedlb/internal/clock"
	"temperedlb/internal/comm"
	"temperedlb/internal/obs"
)

// ReduceOp selects the combining operation of AllReduce.
type ReduceOp int

const (
	// ReduceSum adds contributions.
	ReduceSum ReduceOp = iota
	// ReduceMax takes the maximum contribution.
	ReduceMax
	// ReduceMin takes the minimum contribution.
	ReduceMin
)

func (op ReduceOp) combine(a, b float64) float64 {
	switch op {
	case ReduceSum:
		return a + b
	case ReduceMax:
		return math.Max(a, b)
	case ReduceMin:
		return math.Min(a, b)
	default:
		panic(fmt.Sprintf("amt: unknown reduce op %d", op))
	}
}

// collMsg is the wire payload of both tree-collective phases: a child's
// folded partial on its way up (kindCollUp) and the final result on its
// way down (kindCollDown). Values is nil for barriers.
type collMsg struct {
	Seq    int64
	Values []float64
}

// collState accumulates the child contributions of collective seq on
// their parent. Contributions are keyed by fixed child position, not
// arrival order, so the fold below is topology-deterministic. A rank needs
// one: a child cannot leave collective s, and so cannot send its partial
// of s+1, before its parent has folded s.
type collState struct {
	seq  int64
	kids [][]float64 // one slot per tree child, in ascending rank order
	got  int
}

// collStart opens a collective's tracing window; the returned closer
// emits the EvCollective span, stamped with the tree geometry and the
// messages this rank sent for the collective. Without a tracer both calls
// are a nil check.
func (rc *Context) collStart(name string) func() {
	if rc.tr == nil {
		return func() {}
	}
	start := clock.Now()
	return func() {
		rc.Emit(obs.Event{Type: obs.EvCollective, Peer: -1, Object: -1,
			Name: name, Value: float64(rc.collMsgs),
			Fanout: rc.rt.fanout, Depth: rc.treeDepth,
			Dur: clock.Since(start)})
	}
}

// treeCollective is the one engine under every collective: a reduce up
// the runtime's k-ary rank tree followed by a broadcast back down.
//
// Up phase: the rank waits for a partial vector from each of its tree
// children, folds them into its own contribution in fixed order — local
// value first, then children in ascending rank order — and forwards the
// partial to its parent. Because the combine order is a function of the
// topology alone (never of message arrival order), floating-point
// reductions are bit-identical across runs, under jitter, delays and
// stragglers included. Down phase: the root's fold is the result; every
// rank forwards a private copy to each child (see dispatch), so the
// returned slice is exclusively the caller's.
//
// ops selects a per-element combine (len(ops) == len(in)); a nil ops
// applies op to every element. Per-rank traffic is at most fanout+1
// sends (and as many receives) instead of the star topology's 2(P−1)
// messages through rank 0, and the critical path is one up+down sweep
// of depth ceil(log_k P).
//
// Both waits are the pump: the rank keeps scheduling incoming messages —
// or a sender does it on the parked rank's behalf — so application
// traffic cannot deadlock a collective. All ranks must call collectives
// in matching order.
func (rc *Context) treeCollective(name string, in []float64, op ReduceOp, ops []ReduceOp) []float64 {
	defer rc.collStart(name)()
	rc.collSeq++
	rc.Stats[Collectives].Add(1)
	rc.Stats[CollectiveMsgs].Add(int64(rc.collMsgs))
	seq := rc.collSeq

	acc := append([]float64(nil), in...)
	if rc.nKids > 0 {
		rc.pump(waitCollUp, seq)
		for i, kid := range rc.coll.kids {
			rc.coll.kids[i] = nil
			if len(kid) != len(acc) {
				panic(fmt.Sprintf("amt: %s length mismatch: %d vs %d",
					name, len(kid), len(acc)))
			}
			if ops != nil {
				for j, v := range kid {
					acc[j] = ops[j].combine(acc[j], v)
				}
			} else {
				for j, v := range kid {
					acc[j] = op.combine(acc[j], v)
				}
			}
		}
		rc.coll.got = 0
	}
	rc.coll.seq = seq + 1

	if rc.parent >= 0 {
		rc.transmit(comm.Message{
			From: int(rc.rank), To: rc.parent, Kind: kindCollUp,
			Data: collMsg{Seq: seq, Values: acc},
		})
		rc.pump(waitCollDown, seq)
		acc, rc.result, rc.resultSeq = rc.result, nil, 0
		return acc
	}
	// Root: the local fold is the global result; start the down phase.
	rc.sendDown(seq, acc)
	return acc
}

// sendDown forwards a private copy of the result to each tree child —
// pushed, never claimed (see transmit).
func (rc *Context) sendDown(seq int64, result []float64) {
	for c := rc.childBase; c < rc.childBase+rc.nKids; c++ {
		var out []float64
		if result != nil {
			out = append([]float64(nil), result...)
		}
		rc.rt.nw.Send(comm.Message{
			From: int(rc.rank), To: c, Kind: kindCollDown,
			Data: collMsg{Seq: seq, Values: out},
		})
	}
}

// onCollUp stores one child's partial of the next collective this rank
// folds. Children may race ahead of this rank's own entry into it, so the
// partials are held until this rank reaches the matching call.
func (rc *Context) onCollUp(m comm.Message) {
	cm := m.Data.(collMsg)
	if cm.Seq != rc.coll.seq {
		panic(fmt.Sprintf("amt: rank %d got a partial of collective %d while collecting collective %d",
			rc.rank, cm.Seq, rc.coll.seq))
	}
	if rc.coll.kids == nil {
		rc.coll.kids = make([][]float64, rc.nKids)
	}
	rc.coll.kids[m.From-rc.childBase] = cm.Values
	rc.coll.got++
}

// onCollDown installs the result of the collective this rank is in and
// forwards a copy toward its own subtree. A down message can only arrive
// after this rank sent its partial up, i.e. while it is blocked inside
// the matching collective call, so the result is consumed immediately.
func (rc *Context) onCollDown(m comm.Message) {
	cm := m.Data.(collMsg)
	if cm.Seq != rc.collSeq || rc.resultSeq != 0 {
		panic(fmt.Sprintf("amt: rank %d got the result of collective %d while in collective %d",
			rc.rank, cm.Seq, rc.collSeq))
	}
	rc.sendDown(cm.Seq, cm.Values)
	rc.result, rc.resultSeq = cm.Values, cm.Seq
}

// Barrier blocks until every rank has reached the same barrier call: a
// zero-length reduction, so release still takes one full up+down sweep.
func (rc *Context) Barrier() {
	rc.treeCollective("barrier", nil, ReduceSum, nil)
}

// AllReduce combines value across all ranks with op and returns the
// result on every rank. This is the constant-size statistics all-reduce
// that precedes every LB invocation (§IV-B).
func (rc *Context) AllReduce(value float64, op ReduceOp) float64 {
	rc.smallBuf[0] = value
	return rc.treeCollective("allreduce", rc.smallBuf[:1], op, nil)[0]
}

// AllReduceMixed is AllReduceVec with a combine of its own per element:
// values[i] is reduced across all ranks with ops[i]. It lets a caller
// that needs sums and maxima of the same step take one tree sweep
// instead of one per operator; each element's fold order is the
// topology's, exactly as in a single-operator reduce, so the results are
// bit-identical to separate collectives. All ranks must pass the same
// ops; neither slice is retained or mutated.
func (rc *Context) AllReduceMixed(values []float64, ops []ReduceOp) []float64 {
	if len(ops) != len(values) {
		panic(fmt.Sprintf("amt: AllReduceMixed with %d values and %d ops", len(values), len(ops)))
	}
	return rc.treeCollective("allreduce_mixed", values, ReduceSum, ops)
}

// AllGather collects one float64 from every rank and returns the full
// vector, indexed by rank, on every rank. It rides the tree engine as a
// one-hot sum — x + 0 is exact in floating point, so each slot arrives
// untouched. Every rank allocates and ships O(P) floats, so nothing on a
// per-iteration or per-phase path may call it: the one caller left is
// serve's assignmentFingerprint, once per service run (frames ride the
// protocol's own reduces as an obs.LoadSummary instead). Like the other
// collectives it must be called by all ranks in matching order.
func (rc *Context) AllGather(value float64) []float64 {
	in := make([]float64, rc.n)
	in[rc.rank] = value
	return rc.treeCollective("allgather", in, ReduceSum, nil)
}

// AllReduceVec combines a fixed-width vector elementwise across all
// ranks with op and returns the result on every rank — one collective
// where a loop of AllReduce calls would cost a full tree sweep per
// element. All ranks must pass the same length; the input slice is
// neither retained nor mutated.
func (rc *Context) AllReduceVec(values []float64, op ReduceOp) []float64 {
	return rc.treeCollective("allreduce_vec", values, op, nil)
}
