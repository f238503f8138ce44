package core

import (
	"container/heap"
	"time"

	"temperedlb/internal/comm"
)

// gossipKind is the transport kind the engine's gossip messages carry
// when they are put to a comm.FaultPlan; the engine simulates no other
// traffic, so any one value serves.
const gossipKind comm.Kind = 0

// gossipQueue is the engine's simulated gossip transport: the sends of
// one inform stage, delivered until none is left. Without a fault plan
// delivery is reliable and FIFO. With one, every send is stamped as
// comm.Network.Send would stamp it — its sender's send index, from 1 —
// and the plan decides its fate; when the plan can delay, deliveries
// are ordered by (virtual arrival time, enqueue index), so late arrival
// reorders gossip and an all-zero delay degenerates to FIFO exactly.
type gossipQueue struct {
	plan *comm.FaultPlan // nil: no faults
	sent []int64         // per-rank send index, the plan's sequence key

	fifo     []Send // reused across iterations; each Send is copied in
	head     int
	timed    timedSends // used instead of fifo when plan.CanDelay()
	enqueued uint64
	arrived  timedSend // the delivery next last popped off timed

	dropped, duplicated int
}

// timedSend is one scheduled delivery; idx is its enqueue index.
type timedSend struct {
	at  time.Duration
	idx uint64
	s   Send
}

// timedSends is a container/heap of deliveries, earliest first.
type timedSends []timedSend

func (h timedSends) Len() int      { return len(h) }
func (h timedSends) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h timedSends) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].idx < h[j].idx
}
func (h *timedSends) Push(x any) { *h = append(*h, x.(timedSend)) }
func (h *timedSends) Pop() any {
	last := len(*h) - 1
	x := (*h)[last]
	*h = (*h)[:last]
	return x
}

// compile readies the queue for a run over numRanks ranks under sp,
// which the caller has validated against that rank count.
func (q *gossipQueue) compile(sp comm.FaultSpec, numRanks int) {
	q.plan = nil
	if !sp.Empty() {
		q.plan, q.sent = sp.Plan(gossipKind), make([]int64, numRanks)
	}
}

// reset empties the queue for the next inform stage, whose fault
// decisions are drawn under seed.
func (q *gossipQueue) reset(seed int64) {
	q.fifo, q.head = q.fifo[:0], 0
	if q.plan == nil {
		return
	}
	q.plan.Seed = seed
	clear(q.sent)
	q.timed, q.enqueued, q.arrived = q.timed[:0], 0, timedSend{}
	q.dropped, q.duplicated = 0, 0
}

// send hands the queue the messages rank from emits, now or in response
// to the delivery next last returned: a cascaded forward inherits the
// triggering delivery's virtual arrival time as its send time.
func (q *gossipQueue) send(from Rank, sends []Send) {
	if q.plan == nil {
		q.fifo = append(q.fifo, sends...)
		return
	}
	for _, s := range sends {
		q.sent[from]++
		// Lost in transit means no merge and no forwarding cascade: the
		// knowledge the receiver would have gained simply stays unknown.
		f := q.plan.Decide(int(from), int(s.To), gossipKind, q.sent[from])
		if f.Drop {
			q.dropped++
			continue
		}
		q.enqueue(s, f.Delay)
		if f.Dup {
			q.duplicated++
			q.enqueue(s, f.DupDelay)
		}
	}
}

func (q *gossipQueue) enqueue(s Send, delay time.Duration) {
	if !q.plan.CanDelay() {
		q.fifo = append(q.fifo, s)
		return
	}
	heap.Push(&q.timed, timedSend{at: q.arrived.at + delay, idx: q.enqueued, s: s})
	q.enqueued++
}

// next returns the next delivery, valid until the following send or
// next, or nil when the queue has drained. Only one of fifo and timed is
// ever filled.
func (q *gossipQueue) next() *Send {
	if q.head < len(q.fifo) {
		q.head++
		return &q.fifo[q.head-1]
	}
	if len(q.timed) == 0 {
		return nil
	}
	q.arrived = heap.Pop(&q.timed).(timedSend)
	return &q.arrived.s
}
