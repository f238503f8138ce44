package comm

import (
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
	Epoch    int64 // termination-detection epoch the message belongs to (0 = none)
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
// The network counts messages per kind: one atomic add per send, on the
// sender's stripe of the counters (see sendStripe), never on a line every
// sending core writes. It does not weigh payloads: what a payload weighs
// is the wire codec's knowledge, and this package sits below it — the
// runtime sizes what its ranks send (internal/amt).
type Network struct {
	n       int
	inboxes []*inbox
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

	dropKind [MaxKinds]atomic.Int64
	dupKind  [MaxKinds]atomic.Int64
	// sent is last, behind the fault counters nothing writes on a
	// fault-free send, so the first stripe shares no line with the fields
	// every send reads.
	sent [sendStripes]sendStripe
}

// sendStripes is how many stripes the per-kind send counters are split
// over, by sender rank. A constant, not one per rank, so the counters cost
// a network the same few kilobytes at any size (a 512-byte block per sender
// raised paper_vb_4096_mem's setup_s from 14.2 to 18.2 ms); two ranks
// sending at the same instant share a stripe one time in sendStripes.
const sendStripes = 16

// sendStripe is one stripe of the send counters: messages per kind,
// padded by a cache line so that no two stripes' counters share one.
// Stats sums the stripes.
type sendStripe struct {
	msgs [MaxKinds]atomic.Int64
	_    [64]byte
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
	if nw.Stats().Sent.Total() > 0 {
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
func (nw *Network) Send(m Message) { nw.send(m, false) }

// SendClaim is Send for a sender that can run the destination rank
// itself: when the destination is local, its owner is parked in WaitOwned
// and its inbox is empty, the owner is not woken and the message is not
// enqueued — the inbox becomes borrowed and SendClaim returns true. The
// caller then runs the rank: it handles m, drains with RecvBatch whatever
// queues meanwhile, and must end the borrow with Release. In every other
// case the message is delivered as by Send and the result is false, so a
// claimed message never overtakes a queued one and a sender's plain sends
// and claims reach the rank in the order they were made. (A parked rank
// with a non-empty inbox is not worth taking: whoever queued the message
// has woken its owner.) A claim is never granted under a fault plan — the
// plan decides that delivery, and its delayed copies land from goroutines
// that run no rank — nor for a remote destination, nor for a message of
// an epoch the destination has not entered: that one waits in the inbox
// for Enter. A granted claim takes no lock.
func (nw *Network) SendClaim(m Message) bool { return nw.send(m, true) }

// send validates, stamps and accounts for m, then delivers it; claim asks
// for the destination rank (see SendClaim).
func (nw *Network) send(m Message, claim bool) bool {
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
	nw.sent[uint(m.From)%sendStripes].msgs[m.Kind].Add(1)
	if p := nw.plan.Load(); p != nil {
		nw.faultedDeliver(p, m)
		return false
	}
	if claim && m.To >= nw.lo && m.To < nw.hi {
		return nw.inboxes[m.To-nw.lo].pushClaim(m)
	}
	nw.deliver(m)
	return false
}

// faultedDeliver does to one message what the plan decides: drop it, or
// deliver it once or twice, each copy after its own delay.
func (nw *Network) faultedDeliver(p *FaultPlan, m Message) {
	f := p.decide(m.From, m.To, m.Kind, m.Seq)
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

// Stats snapshots the per-kind counters (see Stats), summing the send
// stripes. Each counter is read atomically, so every total is monotone
// across snapshots; one taken while ranks send is not one instant across
// kinds or stripes.
func (nw *Network) Stats() Stats {
	var s Stats
	for i := range nw.sent {
		st := &nw.sent[i]
		for k := range s.Sent {
			s.Sent[k] += st.msgs[k].Load()
		}
	}
	for k := range s.Sent {
		s.Dropped[k] = nw.dropKind[k].Load()
		s.Duplicated[k] = nw.dupKind[k].Load()
	}
	return s
}

// Recv pops the next message for rank without blocking; ok is false when
// the inbox is empty.
func (nw *Network) Recv(rank int) (Message, bool) {
	return nw.inbox(rank).pop()
}

// RecvBatch drains every currently queued message for rank into buf and
// returns the extended slice, without blocking. An empty inbox costs no
// lock, a whole burst one lock acquisition instead of one per message.
// An empty buf may be kept by the inbox as its next queue, the burst
// coming back in the queue's array instead: pass the previous call's
// result resliced to [:0] and the steady state neither copies nor
// allocates. The caller should zero consumed entries so payload
// references are released, and must not use buf again after the call.
func (nw *Network) RecvBatch(rank int, buf []Message) []Message {
	return nw.inbox(rank).popBatch(buf)
}

// Enter records that rank has entered epoch e and returns, appended to
// buf in arrival order, the messages of e that reached it before — the
// ones that waited in its inbox, neither queued nor waking the owner nor
// claimable, because their epoch was ahead of the rank's (see
// SendClaim). From here on messages of e queue as any other. An empty
// buf is traded for the returned array, as by RecvBatch. Only the rank's
// own goroutine may call it, with epochs in increasing order. Enter
// panics if a waiting message is not of epoch e: a peer two epochs
// ahead of the rank is a broken termination protocol.
func (nw *Network) Enter(rank int, e int64, buf []Message) []Message {
	return nw.inbox(rank).enter(e, buf)
}

// RecvWait pops the next message for rank, blocking until one arrives or
// the network is closed (ok=false).
func (nw *Network) RecvWait(rank int) (Message, bool) {
	ib := nw.inbox(rank)
	for {
		if m, ok := ib.pop(); ok {
			return m, true
		}
		if ok, _ := ib.waitOwned(0); !ok {
			return Message{}, false
		}
	}
}

// WaitOwned parks the calling goroutine — the owner of rank — until the
// rank has something for it to do: ok is true once a message is queued
// with no borrower running the rank, or a borrower has released it with
// wake set. While the owner is parked a SendClaim may borrow the rank;
// the owner sleeps through the whole borrow. With d > 0 the wait also
// ends (timedOut=true, ok=false) when d elapses with the rank unborrowed
// and its inbox empty; d <= 0 waits without a deadline. Both results are
// false once the network is closed and nothing is left to drain —
// whatever the ownership state, so a borrower that died mid-handler
// cannot strand the owner. Only the rank's own goroutine may call it. It
// takes no lock: it moves the inbox's state word by CAS and sleeps on the
// inbox's wake token.
func (nw *Network) WaitOwned(rank int, d time.Duration) (ok, timedOut bool) {
	return nw.inbox(rank).waitOwned(d)
}

// Release ends the borrow a SendClaim granted on rank. wake reports that
// what the rank's owner waits for has come true: the owner is then woken
// and owns the rank again. Otherwise the rank goes back to parked — unless
// messages have queued during the borrow, in which case Release returns
// false and the caller still holds the rank and must drain it (RecvBatch)
// before trying again. Release takes no lock: it is one CAS of the
// inbox's state word, followed by a wake token for the owner when it wakes
// it.
func (nw *Network) Release(rank int, wake bool) bool {
	return nw.inbox(rank).release(wake)
}

// Pending returns the number of queued messages for rank.
func (nw *Network) Pending(rank int) int {
	ib := nw.inbox(rank)
	ib.mu.Lock()
	defer ib.mu.Unlock()
	return len(ib.queue) - ib.head
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

// The state word of an inbox: its ownership state — who, if anyone, may
// run its rank — in the low two bits, and three flags.
const (
	// ownerRunning: the rank's own goroutine runs it, or nobody waits.
	ownerRunning uint32 = iota
	// ownerParked: the owner sleeps in waitOwned; a SendClaim may take
	// the rank, a plain push wakes the owner.
	ownerParked
	// ownerBorrowed: a sender's goroutine runs the rank and the owner
	// sleeps on; pushes only enqueue, the borrower finds them at release.
	ownerBorrowed

	ownerMask uint32 = 3
	// stateQueued: the queue holds a message (head < len(queue)).
	stateQueued uint32 = 1 << 2
	// stateTimed: the owner sleeps against a deadline (see release).
	stateTimed uint32 = 1 << 3
	// stateClosed: the network is closed.
	stateClosed uint32 = 1 << 4
)

// claimed takes a parked rank with nothing queued for a SendClaim: a
// queued message must not be overtaken, and a closed inbox lends nothing.
// A timed owner may be claimed; it sleeps through the borrow.
func claimed(s uint32) uint32 {
	if s&^stateTimed != ownerParked {
		return s
	}
	return s&^ownerMask | ownerBorrowed
}

// released ends a borrow: back to running with wake, else back to parked
// — but not while a message is queued, which the borrower must drain
// first, for nobody would wake the owner for it.
func released(s uint32, wake bool) uint32 {
	switch {
	case wake:
		return s&^ownerMask | ownerRunning
	case s&(stateClosed|stateQueued) == stateQueued:
		return s
	}
	return s&^ownerMask | ownerParked
}

// ownerStep is the owner's step in waitOwned: slept reports that it has
// taken a token since the call began, expired that its deadline has
// passed. Work wins over a close, and a borrow over a deadline: the owner
// sleeps through the borrow and looks at its clock after the release.
func ownerStep(s uint32, slept, expired bool) (next uint32, sleep, ok, timedOut bool) {
	owner, run := s&ownerMask, s&^ownerMask|ownerRunning
	switch {
	case owner != ownerBorrowed && (s&stateQueued != 0 || slept && owner == ownerRunning):
		// Work to do, or a releasing borrower found the wait over and
		// handed the rank back as running.
		return run, false, true, false
	case s&stateClosed != 0:
		return s, false, false, false
	case owner == ownerBorrowed:
		return s, true, false, false
	case expired:
		return run, false, false, true
	}
	return s&^ownerMask | ownerParked, true, false, false
}

// inbox is an unbounded MPSC queue with an ownership state (see above)
// and a wake token. Every change of the state word is one CAS (update), so
// no transition overwrites another and each hand-over of the rank orders
// one runner's writes before the next one's reads. mu guards only queue
// and head. The owner sleeps by taking a token from wake, a channel of
// capacity one, and whoever gives it work drops one there after its CAS,
// without blocking: a token dropped before the owner sleeps is still there
// when it does, and one that finds the slot full is not needed.
type inbox struct {
	state atomic.Uint32
	wake  chan struct{}
	mu    sync.Mutex
	queue []Message
	head  int
	// entered is the last epoch the rank entered (Network.Enter), and
	// early, in arrival order, the messages of a later one: they wait
	// here, outside the state word — not queued, waking nobody, never
	// claimed — until the rank enters their epoch. Both are guarded by mu;
	// entered is atomic too, for pushClaim's look before its CAS.
	entered atomic.Int64
	early   []Message

	// timer is waitOwned's single reusable deadline timer, created on the
	// first timed wait and Reset on every later one (hot in the reliable
	// layer's retransmission pump). Only the owner touches it. Its
	// callback drops a token; one that fires after Stop is a spurious one.
	timer *time.Timer
	// sched is nil but in the interleaving check (statemodel_test.go).
	sched scheduler
}

func newInbox() *inbox {
	return &inbox{wake: make(chan struct{}, 1)}
}

// scheduler runs an inbox's goroutines one step at a time: step is called
// before each step another goroutine could observe ("load" or "CAS" of the
// word, "lock" of mu, "drop" or "take" of a token), and now is the clock.
type scheduler interface {
	step(op string)
	now() time.Time
}

func (ib *inbox) step(op string) {
	if ib.sched != nil {
		ib.sched.step(op)
	}
}

// update applies a transition f — a pure function from the word loaded to
// the word to leave, the same word to change nothing — by a load and a CAS,
// loading again if the CAS fails, and returns the word f was applied to.
func (ib *inbox) update(f func(uint32) uint32) uint32 {
	for {
		ib.step("load")
		s := ib.state.Load()
		next := f(s)
		if next == s {
			return s
		}
		ib.step("CAS")
		if ib.state.CompareAndSwap(s, next) {
			return s
		}
	}
}

// signal drops a wake token unless one is already there.
func (ib *inbox) signal() {
	ib.step("drop")
	select {
	case ib.wake <- struct{}{}:
	default:
	}
}

// push enqueues m and wakes a parked owner. The CAS that sets stateQueued
// reads the owner, so a claim or a quiet release racing the push fails on
// the flag; a borrowed rank's owner sleeps on, for its borrower finds the
// message when it releases. A message of an epoch the rank has not entered
// goes to early instead, and leaves the word alone.
func (ib *inbox) push(m Message) {
	ib.step("lock")
	ib.mu.Lock()
	if m.Epoch > ib.entered.Load() {
		ib.early = append(ib.early, m)
		ib.mu.Unlock()
		return
	}
	ib.queue = append(ib.queue, m)
	s := ib.update(func(s uint32) uint32 { return s | stateQueued })
	ib.mu.Unlock()
	if s&ownerMask == ownerParked {
		ib.signal()
	}
}

// pushClaim takes an idle parked rank for the caller — leaving m with it,
// unqueued — and is push otherwise, as it always is for a message of an
// epoch the rank has not entered. Its look at entered may be stale, never
// ahead: push decides again under mu.
func (ib *inbox) pushClaim(m Message) bool {
	if !ib.ahead(m) {
		if s := ib.update(claimed); claimed(s) != s {
			return true
		}
	}
	ib.push(m)
	return false
}

// ahead reports whether m belongs to an epoch the rank has not entered.
// Epoch 0, part of no epoch, never is.
func (ib *inbox) ahead(m Message) bool {
	if m.Epoch == 0 {
		return false
	}
	ib.step("entered")
	return m.Epoch > ib.entered.Load()
}

// release ends a borrow (see Network.Release and released). It wakes the
// owner it hands the rank back to, and an owner sleeping against a
// deadline whatever wake says, to look at its clock.
func (ib *inbox) release(wake bool) bool {
	s := ib.update(func(s uint32) uint32 { return released(s, wake) })
	if released(s, wake) == s {
		return false
	}
	if wake || s&stateTimed != 0 {
		ib.signal()
	}
	return true
}

func (ib *inbox) pop() (Message, bool) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.head >= len(ib.queue) {
		return Message{}, false
	}
	m := ib.queue[ib.head]
	ib.queue[ib.head] = Message{} // release references
	ib.head++
	if ib.head == len(ib.queue) {
		ib.queue = ib.queue[:0]
		ib.head = 0
		ib.update(func(s uint32) uint32 { return s &^ stateQueued })
	} else if ib.head > 64 && ib.head*2 >= len(ib.queue) {
		// Compact once the dead prefix dominates.
		n := copy(ib.queue, ib.queue[ib.head:])
		ib.queue = ib.queue[:n]
		ib.head = 0
	}
	return m, true
}

// waitOwned is WaitOwned: it applies ownerStep until the step is not to
// sleep, taking a token each time it is. The deadline rides the inbox's
// timer; stateTimed is set for the whole wait, so that a release wakes an
// owner whose deadline passed while its rank was borrowed.
func (ib *inbox) waitOwned(d time.Duration) (ok, timedOut bool) {
	now := clock.Now
	if ib.sched != nil {
		now = ib.sched.now
	}
	var deadline time.Time
	if d > 0 {
		deadline = now().Add(d)
		if ib.timer == nil {
			ib.timer = time.AfterFunc(d, ib.signal)
		} else {
			ib.timer.Reset(d)
		}
		ib.update(func(s uint32) uint32 { return s | stateTimed })
	}
	for slept := false; ; slept = true {
		sleep := false
		ib.update(func(s uint32) (next uint32) {
			next, sleep, ok, timedOut = ownerStep(s, slept, d > 0 && !now().Before(deadline))
			return next
		})
		if !sleep {
			break
		}
		ib.step("take")
		<-ib.wake
	}
	if d > 0 {
		ib.timer.Stop()
		ib.update(func(s uint32) uint32 { return s &^ stateTimed })
	}
	return ok, timedOut
}

// popBatch hands every queued message to the caller under one lock. With
// nothing queued it returns buf at once, without the lock. Otherwise, when
// buf is empty and nothing was popped singly, the queue and buf trade
// places: the caller gets the queue's array and the inbox queues into
// buf's from now on, so a caller that passes its previous batch back
// (resliced to [:0], consumed entries zeroed) drains without copying or
// allocating. Any other case appends a copy and clears the queue, so the
// inbox never pins a delivered payload it copied out.
func (ib *inbox) popBatch(buf []Message) []Message {
	ib.step("load")
	if ib.state.Load()&stateQueued == 0 {
		return buf
	}
	ib.step("lock")
	ib.mu.Lock()
	if len(buf) == 0 && ib.head == 0 {
		buf, ib.queue = ib.queue, buf[:0]
	} else {
		buf = append(buf, ib.queue[ib.head:]...)
		clear(ib.queue)
		ib.queue = ib.queue[:0]
		ib.head = 0
	}
	ib.update(func(s uint32) uint32 { return s &^ stateQueued })
	ib.mu.Unlock()
	return buf
}

// enter records that the rank has entered epoch e and hands the caller
// its early messages, in arrival order, under one lock — trading early's
// array for an empty buf as popBatch trades the queue's. Every one of them
// must be of epoch e: a rank at epoch e−1 is sent nothing of e+1, for e
// cannot terminate before its token has visited the rank inside e.
func (ib *inbox) enter(e int64, buf []Message) []Message {
	ib.step("lock")
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if e <= ib.entered.Load() {
		panic(fmt.Sprintf("comm: enter epoch %d after epoch %d", e, ib.entered.Load()))
	}
	for i := range ib.early {
		if m := &ib.early[i]; m.Epoch != e {
			panic(fmt.Sprintf("comm: rank %d enters epoch %d with a kind-%d message of epoch %d from rank %d waiting",
				m.To, e, m.Kind, m.Epoch, m.From))
		}
	}
	ib.entered.Store(e)
	if len(buf) == 0 {
		buf, ib.early = ib.early, buf[:0]
		return buf
	}
	buf = append(buf, ib.early...)
	clear(ib.early)
	ib.early = ib.early[:0]
	return buf
}

func (ib *inbox) close() {
	ib.update(func(s uint32) uint32 { return s | stateClosed })
	ib.signal()
}
