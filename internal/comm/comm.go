package comm

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"temperedlb/internal/clock"
)

// Kind discriminates message classes at the transport level so the
// runtime can route control traffic (termination tokens, collectives)
// separately from user/epoch traffic.
type Kind int32

// Message is one active-message envelope.
type Message struct {
	From, To int
	Kind     Kind
	Handler  int32 // runtime handler id, meaningful for user kinds
	Seq      int64 // per-sender sequence number, set by Send
	MsgID    int64 // reliability id, set by layers that dedup/retransmit (0 = none)
	Data     any
}

// MaxKinds bounds the Kind value space for the per-kind accounting
// arrays; the runtime uses a dozen kinds, so a fixed array keeps the
// counters allocation-free and index-addressable.
const MaxKinds = 32

// Network connects n ranks with reliable, per-sender-FIFO, asynchronous
// delivery. Sends never block (inboxes are unbounded); receives may. A
// FaultPlan (SetFaultPlan) takes reliability and order away on purpose:
// it is the one way to lose, duplicate, delay or reorder a message.
//
// The network always counts messages per kind (one atomic add per send).
// Payload byte accounting — sizing every message's Data with the
// reflection-based EstimateBytes — is opt-in via EnableByteAccounting
// because the walk costs far more than the send itself.
type Network struct {
	n       int
	inboxes []*inbox
	sent    atomic.Int64
	seq     []atomic.Int64
	closed  atomic.Bool
	plan    atomic.Pointer[FaultPlan]

	// lo/hi bound the local rank range [lo,hi); messages to ranks
	// outside it are handed to forward (a partial network's uplink to
	// its wire transport) after sequence stamping, accounting and fault
	// injection — so a rank's fault dice are rolled exactly once, at the
	// sending process, whatever transport carries the message. The full
	// in-memory network has lo=0, hi=n, forward=nil.
	lo, hi  int
	forward func(Message)

	// delayMu fences delayed-delivery registration against Close:
	// readers (senders scheduling a delayed copy) join the inflight
	// group under the read lock, and Close flips closed under the write
	// lock, so once Close holds the lock no new in-flight delivery can
	// appear and inflight.Wait() observes them all.
	delayMu  sync.RWMutex
	inflight sync.WaitGroup

	sentKind  [MaxKinds]atomic.Int64
	bytesKind [MaxKinds]atomic.Int64
	dropKind  [MaxKinds]atomic.Int64
	dupKind   [MaxKinds]atomic.Int64
	countB    atomic.Bool
}

// NewNetwork creates a network of n ranks, all of them local.
func NewNetwork(n int) *Network {
	return NewPartialNetwork(n, 0, n, nil)
}

// NewPartialNetwork creates the local slice [lo,hi) of an n-rank
// network. Sends to local destinations behave exactly as on a full
// network; sends to any other rank are stamped, accounted and
// fault-filtered here and then handed to forward, which must carry them
// to the process hosting the destination (see the wire package). The
// receiving side delivers them via Inject. forward may be nil only for
// the full range.
func NewPartialNetwork(n, lo, hi int, forward func(Message)) *Network {
	if n < 1 {
		panic(fmt.Sprintf("comm: NewPartialNetwork: n must be >= 1, got %d", n))
	}
	if lo < 0 || hi > n || lo >= hi {
		panic(fmt.Sprintf("comm: NewPartialNetwork: bad local range [%d,%d) of %d ranks", lo, hi, n))
	}
	if forward == nil && (lo != 0 || hi != n) {
		panic("comm: NewPartialNetwork: partial range needs a forward hook")
	}
	nw := &Network{
		n:       n,
		lo:      lo,
		hi:      hi,
		forward: forward,
		inboxes: make([]*inbox, hi-lo),
		seq:     make([]atomic.Int64, n),
	}
	for i := range nw.inboxes {
		nw.inboxes[i] = newInbox()
	}
	return nw
}

// LocalRange returns the half-open rank range [lo,hi) whose inboxes
// live in this process.
func (nw *Network) LocalRange() (lo, hi int) { return nw.lo, nw.hi }

// inbox returns the local inbox of rank, panicking on a rank this
// partial network does not host — always a routing bug.
func (nw *Network) inbox(rank int) *inbox {
	if rank < nw.lo || rank >= nw.hi {
		panic(fmt.Sprintf("comm: rank %d is not local to [%d,%d)", rank, nw.lo, nw.hi))
	}
	return nw.inboxes[rank-nw.lo]
}

// deliver lands a stamped message: local destinations go straight to
// their inbox, remote ones to the forward hook.
func (nw *Network) deliver(m Message) {
	if m.To >= nw.lo && m.To < nw.hi {
		nw.inboxes[m.To-nw.lo].push(m)
		return
	}
	nw.forward(m)
}

// Inject delivers a message that arrived from a remote peer straight
// into its local destination inbox. It bypasses sequence stamping,
// accounting and fault injection — the sending process applied all
// three before the message crossed the wire — so it must never be used
// for locally originated traffic. Unlike Send it is permitted on a
// closed network: a remote delivery racing shutdown is enqueued (and
// discarded with the inboxes) rather than treated as a protocol bug,
// because the closing side cannot stop its peers instantaneously.
func (nw *Network) Inject(m Message) {
	nw.inbox(m.To).push(m)
}

// SetFaultPlan installs (or, with nil, removes) the fault schedule every
// subsequent delivery is subjected to. The plan is copied; see FaultPlan
// for the semantics. It must be called before any traffic flows —
// fault decisions are keyed by per-sender sequence numbers, so swapping
// plans mid-traffic would make runs unreproducible and race with
// in-flight accounting; calling it after a Send panics.
func (nw *Network) SetFaultPlan(p *FaultPlan) {
	if nw.TotalSent() > 0 {
		panic("comm: SetFaultPlan after traffic has flowed")
	}
	if !p.active() {
		nw.plan.Store(nil)
		return
	}
	p.validate()
	nw.plan.Store(p.clone())
}

// NumRanks returns the number of ranks.
func (nw *Network) NumRanks() int { return nw.n }

// Send enqueues the message to its destination inbox. It never blocks.
// Sending on a closed network panics: it indicates a runtime shutdown
// ordering bug.
func (nw *Network) Send(m Message) {
	if m.To < 0 || m.To >= nw.n {
		panic(fmt.Sprintf("comm: Send to rank %d out of [0,%d)", m.To, nw.n))
	}
	if nw.closed.Load() {
		panic("comm: Send on closed network")
	}
	if m.Kind < 0 || m.Kind >= MaxKinds {
		panic(fmt.Sprintf("comm: Send with kind %d out of [0,%d)", m.Kind, MaxKinds))
	}
	m.Seq = nw.seq[m.From].Add(1)
	nw.sent.Add(1)
	nw.sentKind[m.Kind].Add(1)
	if nw.countB.Load() {
		nw.bytesKind[m.Kind].Add(int64(EstimateBytes(m.Data)))
	}
	if p := nw.plan.Load(); p != nil {
		nw.faultedDeliver(p, m)
		return
	}
	nw.deliver(m)
}

// faultedDeliver does to one message what the plan decides: drop it, or
// deliver it once or twice, each copy after its own delay.
func (nw *Network) faultedDeliver(p *FaultPlan, m Message) {
	f := p.Decide(m.From, m.To, m.Kind, m.Seq)
	if f.Drop {
		nw.dropKind[m.Kind].Add(1)
		return
	}
	nw.deliverAfter(m, f.Delay)
	if f.Dup {
		nw.dupKind[m.Kind].Add(1)
		nw.deliverAfter(m, f.DupDelay)
	}
}

// deliverAfter lands one copy of m after delay (at once when zero),
// registering a delayed delivery with the in-flight group so Close waits
// for it instead of racing it (delayed messages used to be silently lost
// when the network closed while they slept).
func (nw *Network) deliverAfter(m Message, delay time.Duration) {
	if delay <= 0 {
		nw.deliver(m)
		return
	}
	nw.delayMu.RLock()
	if nw.closed.Load() {
		// Close has already begun and may have finished waiting: deliver
		// synchronously so the message is at least queued, mirroring an
		// undelayed send racing Close.
		nw.delayMu.RUnlock()
		nw.deliver(m)
		return
	}
	nw.inflight.Add(1)
	nw.delayMu.RUnlock()
	go func() {
		defer nw.inflight.Done()
		time.Sleep(delay)
		nw.deliver(m)
	}()
}

// TotalSent returns the number of messages sent on the network so far.
func (nw *Network) TotalSent() int64 { return nw.sent.Load() }

// EnableByteAccounting turns on per-kind payload byte accounting: every
// subsequent Send sizes its Data with EstimateBytes. Counts accumulated
// before enabling are unaffected (their bytes were never measured).
func (nw *Network) EnableByteAccounting() { nw.countB.Store(true) }

// ByteAccounting reports whether payload sizing is enabled.
func (nw *Network) ByteAccounting() bool { return nw.countB.Load() }

// SentByKind returns the number of messages of the given kind sent so
// far.
func (nw *Network) SentByKind(k Kind) int64 {
	if k < 0 || k >= MaxKinds {
		return 0
	}
	return nw.sentKind[k].Load()
}

// DroppedByKind returns the number of messages of the given kind the
// fault plan has dropped so far.
func (nw *Network) DroppedByKind(k Kind) int64 {
	if k < 0 || k >= MaxKinds {
		return 0
	}
	return nw.dropKind[k].Load()
}

// DuplicatedByKind returns the number of messages of the given kind the
// fault plan has duplicated so far (each counted once, however many
// copies landed).
func (nw *Network) DuplicatedByKind(k Kind) int64 {
	if k < 0 || k >= MaxKinds {
		return 0
	}
	return nw.dupKind[k].Load()
}

// TotalDropped sums the fault-plan drops over all kinds.
func (nw *Network) TotalDropped() int64 {
	total := int64(0)
	for k := range nw.dropKind {
		total += nw.dropKind[k].Load()
	}
	return total
}

// TotalDuplicated sums the fault-plan duplications over all kinds.
func (nw *Network) TotalDuplicated() int64 {
	total := int64(0)
	for k := range nw.dupKind {
		total += nw.dupKind[k].Load()
	}
	return total
}

// BytesByKind returns the accumulated payload bytes of the given kind;
// zero unless byte accounting was enabled before the traffic flowed.
func (nw *Network) BytesByKind(k Kind) int64 {
	if k < 0 || k >= MaxKinds {
		return 0
	}
	return nw.bytesKind[k].Load()
}

// TotalBytes sums the accounted payload bytes over all kinds.
func (nw *Network) TotalBytes() int64 {
	total := int64(0)
	for k := range nw.bytesKind {
		total += nw.bytesKind[k].Load()
	}
	return total
}

// Recv pops the next message for rank without blocking; ok is false when
// the inbox is empty.
func (nw *Network) Recv(rank int) (Message, bool) {
	return nw.inbox(rank).pop()
}

// RecvBatch drains every currently queued message for rank into buf and
// returns the extended slice, without blocking. The whole burst costs
// one lock acquisition instead of one per message, and passing the
// previous call's buf (resliced to [:0]) makes the steady state
// allocation-free. The caller should zero consumed entries it no longer
// needs so payload references are released.
func (nw *Network) RecvBatch(rank int, buf []Message) []Message {
	return nw.inbox(rank).popBatch(buf)
}

// RecvWait pops the next message for rank, blocking until one arrives or
// the network is closed (ok=false).
func (nw *Network) RecvWait(rank int) (Message, bool) {
	return nw.inbox(rank).popWait()
}

// RecvWaitTimeout is RecvWait with a deadline: it returns timedOut=true
// (and ok=false) when d elapses with no message and the network still
// open. The runtime's retransmission pump uses it; the fault-free path
// never calls it, so the timer cost is confined to faulted runs.
func (nw *Network) RecvWaitTimeout(rank int, d time.Duration) (m Message, ok, timedOut bool) {
	return nw.inbox(rank).popWaitTimeout(d)
}

// Pending returns the number of queued messages for rank.
func (nw *Network) Pending(rank int) int {
	return nw.inbox(rank).len()
}

// Close wakes all blocked receivers; subsequent RecvWait calls drain
// remaining messages and then report ok=false. Close first waits for
// every in-flight delayed delivery to land, so messages a fault plan
// was still holding are drained by receivers rather than silently
// lost. Close is idempotent; concurrent calls may return before the
// first caller has finished closing the inboxes.
func (nw *Network) Close() {
	nw.delayMu.Lock()
	first := nw.closed.CompareAndSwap(false, true)
	nw.delayMu.Unlock()
	if !first {
		return
	}
	nw.inflight.Wait()
	for _, ib := range nw.inboxes {
		ib.close()
	}
}

// Closed reports whether Close has been called.
func (nw *Network) Closed() bool { return nw.closed.Load() }

// inbox is an unbounded MPSC queue with blocking pop.
type inbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Message
	head   int
	closed bool

	// timer is popWaitTimeout's single reusable deadline timer; lazily
	// created on the first timed wait and Reset on every subsequent one
	// instead of allocating an AfterFunc per call (hot in the reliable
	// layer's retransmission pump). Guarded by mu.
	timer *time.Timer
}

func newInbox() *inbox {
	ib := &inbox{}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

func (ib *inbox) push(m Message) {
	ib.mu.Lock()
	ib.queue = append(ib.queue, m)
	ib.mu.Unlock()
	ib.cond.Signal()
}

func (ib *inbox) pop() (Message, bool) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	return ib.popLocked()
}

func (ib *inbox) popWait() (Message, bool) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for {
		if m, ok := ib.popLocked(); ok {
			return m, true
		}
		if ib.closed {
			return Message{}, false
		}
		ib.cond.Wait()
	}
}

// popWaitTimeout is popWait with a deadline. The third result is true
// when the deadline expired with the inbox empty and still open. The
// deadline rides the inbox's single reusable timer, whose callback
// broadcasts on the condition variable; each inbox has a single
// consumer, so the wakeup cannot be stolen by another waiter, and a
// stale callback from a Stop that lost the race merely causes one
// spurious re-check of the loop condition.
func (ib *inbox) popWaitTimeout(d time.Duration) (Message, bool, bool) {
	deadline := clock.Now().Add(d)
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.timer == nil {
		ib.timer = time.AfterFunc(d, func() {
			ib.mu.Lock()
			defer ib.mu.Unlock()
			ib.cond.Broadcast()
		})
	} else {
		ib.timer.Reset(d)
	}
	defer ib.timer.Stop()
	for {
		if m, ok := ib.popLocked(); ok {
			return m, true, false
		}
		if ib.closed {
			return Message{}, false, false
		}
		if !clock.Now().Before(deadline) {
			return Message{}, false, true
		}
		ib.cond.Wait()
	}
}

func (ib *inbox) popLocked() (Message, bool) {
	if ib.head >= len(ib.queue) {
		return Message{}, false
	}
	m := ib.queue[ib.head]
	ib.queue[ib.head] = Message{} // release references
	ib.head++
	// Compact once the dead prefix dominates.
	if ib.head > 64 && ib.head*2 >= len(ib.queue) {
		n := copy(ib.queue, ib.queue[ib.head:])
		ib.queue = ib.queue[:n]
		ib.head = 0
	}
	return m, true
}

// popBatch appends every queued message to buf under one lock and
// resets the queue, retaining its capacity. Internal references are
// cleared so the inbox never pins delivered payloads.
func (ib *inbox) popBatch(buf []Message) []Message {
	ib.mu.Lock()
	if ib.head < len(ib.queue) {
		buf = append(buf, ib.queue[ib.head:]...)
	}
	clear(ib.queue)
	ib.queue = ib.queue[:0]
	ib.head = 0
	ib.mu.Unlock()
	return buf
}

func (ib *inbox) len() int {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	return len(ib.queue) - ib.head
}

func (ib *inbox) close() {
	ib.mu.Lock()
	ib.closed = true
	ib.mu.Unlock()
	ib.cond.Broadcast()
}

// MeasureBytes gob-encodes v and returns the wire size, the byte
// accounting used for migration-volume statistics. Types must be
// gob-encodable; errors report a size of 0.
func MeasureBytes(v any) int {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return 0
	}
	return buf.Len()
}
