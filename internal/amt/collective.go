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
	// reduceConcat is AllGather's fold: each child's subtree range is
	// appended behind the rank's own slot, so the root holds the vector.
	reduceConcat
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

// collMsg is the wire payload of both tree-collective phases, always
// sent by pointer: a child's folded partial on its way up (kindCollUp,
// the child's Context.up) and the final result on its way down
// (kindCollDown, one per collective for the whole tree). Values is nil
// for barriers.
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
// stragglers included. Down phase: the root's fold is a fresh result,
// and that one message goes down the whole tree — every rank forwards
// what it received (see onCollDown) — so the returned slice is shared by
// every rank of the node and must not be written.
//
// Nothing else is allocated per rank. Below the root the fold happens in
// rc.partial and travels up in rc.up, both reused from one collective to
// the next (rc.partial is sized once for the widest fold, a gather's
// subtree range, so a gather's appends never regrow it): a child enters
// collective s+1 only after the down message of s reached it, and its
// parent sends that only after folding the child's partial of s. No
// fault plan can break that order — collective kinds are never dropped
// or duplicated (Runtime.SetFaults), a delayed partial still arrives
// before its parent's fold, and a socket writer encodes a partial before
// the parent can read it.
//
// ops selects a per-element combine (len(ops) == len(in)); a nil ops
// applies op to every element. Per-rank traffic is at most fanout+1
// sends (and as many receives) instead of the star topology's 2(P−1)
// messages through rank 0, and the critical path is one up+down sweep
// of depth ceil(log_k P). Over sockets a collective costs two frames per
// tree edge between nodes (see treeShape): 8 on 256 ranks over two.
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

	var acc []float64 // nil for a barrier
	width := len(in)  // of the fold: a gather's is the subtree's range
	if op == reduceConcat {
		width = rc.size
	}
	if in != nil && rc.parent >= 0 {
		if cap(rc.partial) < width {
			rc.partial = make([]float64, 0, width)
		}
		acc = append(rc.partial[:0], in...)
		rc.partial = acc
	} else if in != nil {
		acc = append(make([]float64, 0, width), in...) // the root folds into the result
	}
	if rc.nKids > 0 {
		rc.pump(waitCollUp, seq)
		for i, kid := range rc.coll.kids {
			rc.coll.kids[i] = nil
			switch {
			case op == reduceConcat:
				acc = append(acc, kid...)
			case len(kid) != len(acc):
				panic(fmt.Sprintf("amt: %s length mismatch: %d vs %d",
					name, len(kid), len(acc)))
			case ops != nil:
				for j, v := range kid {
					acc[j] = ops[j].combine(acc[j], v)
				}
			default:
				for j, v := range kid {
					acc[j] = op.combine(acc[j], v)
				}
			}
		}
		rc.coll.got = 0
	}
	rc.coll.seq = seq + 1

	if rc.parent >= 0 {
		rc.up = collMsg{Seq: seq, Values: acc}
		rc.transmit(comm.Message{
			From: int(rc.rank), To: rc.parent, Kind: kindCollUp, Data: &rc.up,
		})
		rc.pump(waitCollDown, seq)
		acc, rc.result, rc.resultSeq = rc.result, nil, 0
		return acc
	}
	// Root: the local fold is the global result; start the down phase.
	if op == reduceConcat && len(acc) != rc.n {
		panic(fmt.Sprintf("amt: %s length mismatch: %d vs %d", name, len(acc), rc.n))
	}
	rc.fanOut(kindCollDown, 0, &collMsg{Seq: seq, Values: acc})
	return acc
}

// onCollUp stores one child's partial of the next collective this rank
// folds. Children may race ahead of this rank's own entry into it, so the
// partials are held until this rank reaches the matching call; a child
// leaves its partial alone until then (see treeCollective).
func (rc *Context) onCollUp(m comm.Message) {
	cm := m.Data.(*collMsg)
	if cm.Seq != rc.coll.seq {
		panic(fmt.Sprintf("amt: rank %d got a partial of collective %d while collecting collective %d",
			rc.rank, cm.Seq, rc.coll.seq))
	}
	if rc.coll.kids == nil {
		rc.coll.kids = make([][]float64, rc.nKids)
	}
	rc.coll.kids[(m.From-int(rc.rank)-1)/rc.stride] = cm.Values
	rc.coll.got++
}

// onCollDown installs the result of the collective this rank is in and
// forwards the message it received, uncopied, toward its own subtree. A
// down message can only arrive after this rank sent its partial up, i.e.
// while it is blocked inside the matching collective call, so the result
// is consumed immediately.
func (rc *Context) onCollDown(m comm.Message) {
	cm := m.Data.(*collMsg)
	if cm.Seq != rc.collSeq || rc.resultSeq != 0 {
		panic(fmt.Sprintf("amt: rank %d got the result of collective %d while in collective %d",
			rc.rank, cm.Seq, rc.collSeq))
	}
	rc.fanOut(kindCollDown, 0, m.Data)
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
	return rc.treeCollective("allreduce", []float64{value}, op, nil)[0]
}

// AllReduceMixed is AllReduceVec with a combine of its own per element:
// values[i] is reduced across all ranks with ops[i]. It lets a caller
// that needs sums and maxima of the same step take one tree sweep
// instead of one per operator; each element's fold order is the
// topology's, exactly as in a single-operator reduce, so the results are
// bit-identical to separate collectives. All ranks must pass the same
// ops; neither slice is retained or mutated. The result is read-only, as
// AllReduceVec's is.
func (rc *Context) AllReduceMixed(values []float64, ops []ReduceOp) []float64 {
	if len(ops) != len(values) {
		panic(fmt.Sprintf("amt: AllReduceMixed with %d values and %d ops", len(values), len(ops)))
	}
	return rc.treeCollective("allreduce_mixed", values, ReduceSum, ops)
}

// AllGather collects one float64 from every rank and returns the full
// vector, indexed by rank, on every rank. A subtree is the rank range
// [r, r+size) and its children ascend, so each rank sends up its own
// value followed by its children's ranges, and the root's concatenation
// is the vector: no arithmetic touches a slot, and only the root's one
// result is P wide. Like the other collectives it must be called by all
// ranks in matching order, and its result is read-only, as
// AllReduceVec's is.
func (rc *Context) AllGather(value float64) []float64 {
	return rc.treeCollective("allgather", []float64{value}, reduceConcat, nil)
}

// AllReduceVec combines a fixed-width vector elementwise across all
// ranks with op and returns the result on every rank — one collective
// where a loop of AllReduce calls would cost a full tree sweep per
// element. All ranks must pass the same length; the input slice is
// neither retained nor mutated. The result is one slice shared by every
// rank of the node, and stays valid after later collectives: read it,
// keep it, never write it.
func (rc *Context) AllReduceVec(values []float64, op ReduceOp) []float64 {
	return rc.treeCollective("allreduce_vec", values, op, nil)
}
