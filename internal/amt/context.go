package amt

import (
	"fmt"
	"time"

	"temperedlb/internal/clock"
	"temperedlb/internal/comm"
	"temperedlb/internal/core"
	"temperedlb/internal/obs"
	"temperedlb/internal/termination"
)

// Transport-level message kinds. All collectives share one up kind and
// one down kind: they differ only in payload width and combine op, both
// of which live on the calling ranks, never on the wire.
const (
	kindUser comm.Kind = iota
	kindObject
	kindMigrate
	kindLocUpdate
	kindToken
	kindDone
	kindCollUp
	kindCollDown
	kindAck
)

// The epoch tag of every message rides the transport header
// (comm.Message.Epoch; 0 = part of no epoch), so user payloads travel
// bare and the runtime's own payloads carry only their routing fields.

// objEnvelope routes object-directed messages.
type objEnvelope struct {
	Obj    ObjectID
	Origin core.Rank // logical sender (preserved across forwards)
	Data   any
}

// migrateEnvelope carries a migrating object's state.
type migrateEnvelope struct {
	Obj   ObjectID
	State any
}

// locEnvelope updates the home rank's location directory.
type locEnvelope struct {
	Obj ObjectID
	Loc core.Rank
}

// maxBorrowDepth bounds how deep borrowed execution nests: a rank run by
// a borrower that is itself borrowed this many levels down claims nothing
// and sends plainly, waking the owner. It bounds user and collective
// sends only — the termination token does not nest at all: the rank that
// owes a hop returns it to whoever runs it, and the hop is made from
// there after the rank is released (see lend), so a wave over parked
// ranks is a loop at one depth however long the ring. A constant, not an
// option, chosen by two measurements on observed_1024_mem (three runs
// each): at 16, goroutine stacks outgrow their first 8 KB and peak_rss_mb
// is 90.3–91.0 against the parent's 80.7; at 4 it is 81.4–81.6 with the
// same op_s_p50 (0.297–0.321 s against 0.300–0.319 s).
const maxBorrowDepth = 4

// waitKind names what a rank waits for in the pump — the condition a
// borrower evaluates on the owner's behalf before it releases the rank.
type waitKind uint8

const (
	waitNone     waitKind = iota
	waitEpoch             // the open epoch's done announcement
	waitCollUp            // every tree child's partial of collective waitSeq
	waitCollDown          // the result of collective waitSeq
)

// Context is a logical rank's handle to the runtime. All of its methods
// must be called from the goroutine currently running the rank: the one
// executing its main, or whichever one a handler was dispatched on — at
// most one goroutine runs a rank at a time (see pump).
type Context struct {
	rt   *Runtime
	rank core.Rank
	n    int

	epochSeq  int64 // id of the current (or last) epoch entered
	inEpoch   bool
	epochDone bool
	// open is the detector of epoch epochSeq while that epoch is open
	// (nil otherwise): every counted send, receive and ack of the epoch
	// goes to it, and so does its token. It is always det, the rank's one
	// detector: made at the first epoch's entry — rank start allocates
	// nothing for it — and reset at every later one.
	open, det *termination.Detector
	// stash holds the messages of epoch epochSeq+1 that arrived before
	// this rank entered it. One slice, reused across epochs, is enough:
	// epoch e+1 cannot terminate before its token has visited this rank
	// inside e+1, so no rank reaches e+2 — and nothing tagged e+2 exists —
	// while this rank is still at e.
	stash []comm.Message

	// wait and waitSeq say what the rank is in the pump for (waitNone
	// outside it). depth is how deep this rank's current run nests below
	// the goroutine's own rank (0 when its owner runs it), lentTo the rank
	// it is running nested right now, and lentTime, under a tracer, the
	// time spent doing so — what timedHandler subtracts to keep handler
	// time self time.
	wait     waitKind
	waitSeq  int64
	depth    int
	lentTo   *Context
	lentTime time.Duration
	// tokenDepth is the deepest nesting at which this rank has handled a
	// token, tokenWoke the tokens it pushed from the borrow bound (see
	// transmit): what the borrow tests hold a followed wave to.
	tokenDepth, tokenWoke int

	// rel is the ack/retry reliability layer, non-nil only when the
	// runtime's fault plan can drop or duplicate counted messages.
	rel *reliableState

	// Collective tree geometry, fixed at construction from the runtime's
	// fanout k (see treeShape): parent is −1 on the root, and the children
	// are rank+1 + i·stride for i < nKids, in ascending rank order.
	// treeDepth is the depth of the deepest rank, collMsgs the messages
	// this rank sends per collective (one up-partial plus one down-copy
	// per child) — both stamped onto EvCollective spans — and size the
	// ranks of this rank's subtree, [rank, rank+size): the width of its
	// all-gather range.
	parent    int
	stride    int
	nKids     int
	treeDepth int
	collMsgs  int
	size      int

	// collSeq is the collective this rank is in, or last left; coll holds
	// its children's partials of the next one it folds, and result the down
	// phase's result of collective resultSeq (0: none) until it is taken.
	// partial is a non-root rank's own fold and up the message that
	// carries it to the parent, both reused from one collective to the
	// next; partial has room for the rank's all-gather range from the
	// first gather on (see treeCollective).
	collSeq   int64
	coll      collState
	result    []float64
	resultSeq int64
	partial   []float64
	up        collMsg

	// stream is the node's frame stream on the one rank that publishes to
	// it (see Stream), nil on every other; watched is Watched's answer
	// once watchKnown.
	stream              *obs.Stream
	watchKnown, watched bool

	// batch is the reusable drain buffer of Epoch's message pump (one
	// inbox lock per burst instead of per message).
	batch []comm.Message

	// objects holds the state of every object hosted here; localIDs is
	// the same key set as an ascending slice, maintained at create,
	// install and migrate-out, so nothing that needs the ids in order
	// (LocalObjects, PhaseEnd's total) sorts them again.
	objects  map[ObjectID]any
	localIDs []ObjectID
	location map[ObjectID]core.Rank
	objSeq   int64

	phase phaseState

	// tr and epochSeconds mirror the runtime's tracer and epoch-latency
	// histogram, nil when off. A duration measured per message — a handler
	// run, a borrow — is the tracer's alone, so the clock is read per
	// message only when tr is set; metrics time nothing finer than an epoch.
	tr           obs.Tracer
	epochSeconds *obs.Histogram

	// Stats counts what this rank did (see ContextStats).
	Stats ContextStats
}

func newContext(rt *Runtime, rank core.Rank) *Context {
	rc := &Context{
		rt:           rt,
		rank:         rank,
		n:            rt.n,
		coll:         collState{seq: 1},
		objects:      make(map[ObjectID]any),
		location:     make(map[ObjectID]core.Rank),
		tr:           rt.tracer,
		epochSeconds: rt.epochSeconds,
	}
	r := int(rank)
	rc.parent, rc.stride, rc.nKids, rc.treeDepth, rc.size = treeShape(r, rt.n, rt.fanout)
	rc.collMsgs = rc.nKids
	if rc.parent >= 0 {
		rc.collMsgs++
	}
	if rt.reliable {
		rc.rel = newReliableState(rt.n, rt.retryBase)
	}
	if lo, _ := rt.nw.LocalRange(); r == lo {
		rc.stream = rt.stream
	}
	return rc
}

// treeShape places rank r in the collective tree of n ranks at arity k:
// the complete k-ary tree numbered depth-first, so the subtree of every
// rank is the contiguous rank range that starts at it. A subtree of size
// ranks is its root followed by consecutive runs of stride ranks, one
// per child (the last run may be shorter), where stride is the largest
// complete size — 1, k+1, k²+k+1, … — below size (1 for a leaf). The
// children of r are therefore r+1 + i·stride for i < nKids, and finding r
// is a descent from the root of at most depth steps, along which the
// stride only shrinks. depth is the smallest d whose complete size holds
// n ranks, and size is r's subtree's.
//
// Because a subtree is a rank range, a contiguous block of ranks — one
// node's share under wire.SplitRanks — meets the rest of the tree only
// through the ancestors of its two ends: at most k·depth tree edges per
// block boundary.
func treeShape(r, n, k int) (parent, stride, nKids, depth, size int) {
	stride = 1
	for k*stride+1 < n {
		stride = k*stride + 1
		depth++
	}
	if n > 1 {
		depth++
	}
	parent = -1
	lo := 0
	size = n
	for lo != r {
		end := lo + size
		parent, lo = lo, lo+1+(r-lo-1)/stride*stride
		size = min(stride, end-lo)
		for stride > 1 && stride >= size {
			stride = (stride - 1) / k
		}
	}
	return parent, stride, (size - 1 + stride - 1) / stride, depth, size
}

// child returns the rank of this rank's i-th tree child.
func (rc *Context) child(i int) int { return int(rc.rank) + 1 + i*rc.stride }

// Rank returns this context's rank.
func (rc *Context) Rank() core.Rank { return rc.rank }

// NumRanks returns the number of ranks.
func (rc *Context) NumRanks() int { return rc.n }

// Tracer returns the runtime's tracer, nil when tracing is disabled.
// Application code (the distributed balancer) uses it to emit its own
// protocol events alongside the runtime's.
func (rc *Context) Tracer() obs.Tracer { return rc.tr }

// Metrics returns the runtime's metrics registry, nil when disabled.
// Use at setup time to resolve instrument handles; do not call per
// event.
func (rc *Context) Metrics() *obs.Metrics { return rc.rt.metrics }

// Stream returns the stream this rank publishes frames to: the node's
// attached stream on the lowest rank the node hosts, nil on every other
// rank and when the node has none. Frames are built from reduced values
// every rank holds, so each watching node of a multi-process job gets
// them, published once. Guard publishing with one nil check, and guard
// nothing else with it — whether the job takes the frames' share of a
// collective is Watched's answer, never this rank-local one.
func (rc *Context) Stream() *obs.Stream { return rc.stream }

// Watched reports whether any node of the job has a stream attached — a
// job-wide fact, identical on every rank, and so the only thing that may
// decide whether a collective carries a frame's load summary. On the
// in-memory transport the runtime's stream is the whole job's. On a
// socket transport another node's attachment is not a local fact: the
// first call agrees on it with one scalar max-reduce, which every rank
// must therefore make at the same point of its collective sequence, and
// the answer is cached for the runtime's life (a stream cannot be
// attached after Run).
func (rc *Context) Watched() bool {
	if !rc.watchKnown {
		rc.watched = rc.rt.stream != nil
		if rc.rt.link != nil {
			var on float64
			if rc.watched {
				on = 1
			}
			rc.watched = rc.AllReduce(on, ReduceMax) > 0
		}
		rc.watchKnown = true
	}
	return rc.watched
}

// NodeStats folds the view of the node this rank runs on (see
// Runtime.Stats): every hosted rank's counts and the transport's, not this
// rank's alone. Bytes are zero unless byte accounting is on — metrics or
// a stream attached.
func (rc *Context) NodeStats() NodeStats { return rc.rt.Stats() }

// Emit stamps the event with this context's rank and forwards it to the
// tracer; a no-op when tracing is disabled.
func (rc *Context) Emit(e obs.Event) {
	if rc.tr == nil {
		return
	}
	e.Rank = int(rc.rank)
	rc.tr.Emit(e)
}

// Send delivers an active message to the named handler on rank to. Sends
// made while an epoch is open are counted by its termination detection.
// If to is a local rank whose owner is parked, the handler — and whatever
// it cascades into, to a bounded depth — runs on the calling goroutine
// before Send returns (see transmit).
func (rc *Context) Send(to core.Rank, h HandlerID, data any) {
	if rc.rt.handler(h) == nil {
		panic(fmt.Sprintf("amt: Send to unregistered handler %d", h))
	}
	rc.Stats[UserSent].Add(1)
	rc.send(comm.Message{
		From:    int(rc.rank),
		To:      int(to),
		Kind:    kindUser,
		Handler: int32(h),
		Data:    data,
	})
}

// send tags a counted message with the open epoch, feeds its accounting
// and hands the message to the transport. Under the reliability layer
// every epoch-counted send also gets a MsgID and a retransmission credit
// (see reliable.go).
func (rc *Context) send(m comm.Message) {
	if rc.inEpoch {
		m.Epoch = rc.epochSeq
		rc.open.OnSend()
		if rc.rel != nil {
			rc.rel.track(&m)
		}
	}
	rc.transmit(m)
}

// transmit sends m, and runs the destination rank if the transport
// grants it: a local rank whose owner is parked in the pump is not woken
// for the message — this goroutine borrows it (lend). Everything a rank
// sends goes through here except the two kinds that by their meaning
// release their receiver from a wait, kindDone and kindCollDown — those
// are pushed plainly, or the root's goroutine would run the whole
// down-sweep before it returned from its own collective — and the token
// hops lend makes on a borrowed rank's behalf.
func (rc *Context) transmit(m comm.Message) {
	if rc.depth >= maxBorrowDepth {
		if m.Kind == kindToken {
			rc.tokenWoke++
		}
		rc.rt.nw.Send(m)
		return
	}
	if rc.rt.nw.SendClaim(m) {
		rc.lend(rc.rt.ranks[m.To-rc.rt.lo].Load(), m)
	}
}

// lend runs the borrowed rank t on this goroutine: the claimed message
// m, then turns until its inbox is empty and it has done its passive
// share — and releases it, waking its owner only if what the owner waits
// for has come true. t's depth is cleared before every release attempt:
// once released, t is its owner's.
//
// A token hop t owes is made from here, not from t: after the release —
// so this goroutine never holds two ranks — and at this rank's own depth.
// If the transport grants the ring predecessor, that rank is the next one
// borrowed, and a wave crossing parked ranks is this loop, one borrow deep
// however long the ring; if not (a busy rank, a remote one) the hop was
// the plain push it would have been. lentTo follows the chain, so a panic
// names the rank that ran; under a tracer, one clock pair brackets all of
// it.
func (rc *Context) lend(t *Context, m comm.Message) {
	var start time.Time
	if rc.tr != nil {
		start = clock.Now()
	}
	for {
		rc.Stats[Lent].Add(1)
		rc.lentTo = t
		t.depth = rc.depth + 1
		t.dispatch(m)
		// A rank holds the token at most once per borrow — it cannot come
		// round again before this hop is made — so a hop returned by one
		// turn is kept across refused releases, never overwritten.
		var hop comm.Message
		owed := false
		for {
			if h, ok := t.turn(); ok {
				hop, owed = h, true
			}
			done := t.satisfied()
			t.depth = 0
			if rc.rt.nw.Release(int(t.rank), done) {
				break
			}
			t.depth = rc.depth + 1
		}
		if !owed || !rc.rt.nw.SendClaim(hop) {
			break
		}
		t, m = rc.rt.ranks[hop.To-rc.rt.lo].Load(), hop
	}
	rc.lentTo = nil
	if rc.tr != nil {
		rc.lentTime += clock.Since(start)
	}
}

// turn runs the rank until it is idle: dispatch until the inbox is
// empty — in batches, one inbox lock per burst, the buffer and the
// payload references it holds scrubbed between bursts — then, inside an
// epoch wait, the passive rank's share of Safra: hand the token on if
// the rank holds it, and on rank 0 announce a detected termination.
// Owner and borrower run the same turn, so a borrower forwards the token
// under exactly the owner's rule: inbox empty, no handler open. The
// hand-off is built here and never sent here: turn returns the hop it
// owes, at most one, for its caller to make — pump with the rank in hand,
// lend once it has let the rank go.
func (rc *Context) turn() (hop comm.Message, owed bool) {
	// The buffer leaves the context while in use, so a handler that
	// itself waits (a collective inside a handler) pumps with its own.
	batch := rc.batch
	rc.batch = nil
	for {
		batch = rc.rt.nw.RecvBatch(int(rc.rank), batch[:0])
		if len(batch) == 0 {
			break
		}
		for i := range batch {
			rc.dispatch(batch[i])
			batch[i] = comm.Message{}
		}
	}
	rc.batch = batch
	if rc.wait != waitEpoch || rc.epochDone {
		return comm.Message{}, false
	}
	d := rc.open
	if t, next, send := d.TryHandOff(); send {
		if rc.tr != nil {
			rc.Emit(obs.Event{Type: obs.EvTokenRound, Peer: next, Object: -1,
				Epoch: rc.epochSeq, Value: float64(t.Wave)})
		}
		hop, owed = comm.Message{
			From: int(rc.rank), To: next, Kind: kindToken,
			Epoch: rc.epochSeq, Data: t,
		}, true
	}
	if d.Terminated() { // only rank 0
		rc.forwardDone()
		rc.epochDone = true
	}
	return hop, owed
}

// satisfied reports whether what the rank is in the pump for has come
// true.
func (rc *Context) satisfied() bool {
	switch rc.wait {
	case waitEpoch:
		return rc.epochDone
	case waitCollUp:
		return rc.coll.got >= rc.nKids
	case waitCollDown:
		return rc.resultSeq == rc.waitSeq
	default:
		return true
	}
}

// pump is the one place a rank blocks: it takes turns until what it
// waits for has come true — making the token hop a turn returns, which
// may run the ring predecessor and the parked ranks behind it (lend) —
// and parks in the transport's owned wait between them. While the owner
// is parked, any rank goroutine that sends to this rank may run it
// instead (transmit); the transport hands the rank over with a CAS of the
// inbox's state word or under its lock, so at most one goroutine runs a
// rank at a time and everything one of them wrote is visible to the next.
// With unacknowledged sends outstanding the wait carries the reliable
// layer's next retry deadline and retransmits whatever falls due, so a
// dropped message can never wedge a wait.
func (rc *Context) pump(w waitKind, seq int64) {
	prevWait, prevSeq := rc.wait, rc.waitSeq
	rc.wait, rc.waitSeq = w, seq
	for {
		if hop, owed := rc.turn(); owed {
			rc.transmit(hop)
		}
		if rc.satisfied() {
			break
		}
		var deadline time.Duration
		if rc.rel != nil && len(rc.rel.pending) > 0 {
			if deadline = clock.Until(rc.nextRetryDeadline()); deadline <= 0 {
				rc.retryDue()
				continue
			}
		}
		ok, timedOut := rc.rt.nw.WaitOwned(int(rc.rank), deadline)
		if timedOut {
			rc.retryDue()
		} else if !ok {
			panic("amt: network closed inside an epoch or collective")
		}
	}
	rc.wait, rc.waitSeq = prevWait, prevSeq
}

// Epoch runs body — typically a burst of sends that trigger cascading
// handlers — and then processes messages until distributed termination
// detection concludes that every causally related message, on every
// rank, has been received and processed. All ranks must call Epoch
// collectively and in the same order.
func (rc *Context) Epoch(body func()) {
	if rc.inEpoch {
		panic("amt: nested Epoch; epochs must be sequential")
	}
	rc.epochSeq++
	rc.inEpoch = true
	rc.epochDone = false
	rc.Stats[EpochsRun].Add(1)
	if rc.det == nil {
		rc.det = termination.New(int(rc.rank), rc.n)
	} else {
		rc.det.Reset()
	}
	rc.open = rc.det

	// One clock pair per epoch, for the tracer's span and the histogram.
	timed := rc.tr != nil || rc.epochSeconds != nil
	var epochStart time.Time
	if timed {
		epochStart = clock.Now()
		rc.Emit(obs.Event{Type: obs.EvEpochOpen, Peer: -1, Object: -1, Epoch: rc.epochSeq})
	}

	body()

	// Deliver messages that raced ahead of our entry — after body, so the
	// rank's own burst always runs on pre-epoch state: whether a peer's
	// message beat us into the epoch (a scheduling and transport-delay
	// accident) cannot change what body observes. Replay only dispatches;
	// nothing it runs can stash on this rank, so the slice is cleared and
	// kept for the next epoch.
	for i := range rc.stash {
		rc.dispatch(rc.stash[i])
	}
	clear(rc.stash)
	rc.stash = rc.stash[:0]

	rc.pump(waitEpoch, 0)
	rc.assertAcked(rc.epochSeq)
	waves := rc.det.Wave()
	rc.Stats[TokenRounds].Add(int64(waves))
	rc.inEpoch = false
	rc.open = nil
	if timed {
		elapsed := clock.Since(epochStart)
		rc.Emit(obs.Event{Type: obs.EvEpochClose, Peer: -1, Object: -1,
			Epoch: rc.epochSeq, Value: float64(waves), Dur: elapsed})
		if rc.epochSeconds != nil {
			rc.epochSeconds.Observe(int(rc.rank), elapsed.Seconds())
		}
	}
}

// dispatch routes one transport message. Messages tagged with an epoch
// this rank has not entered yet — counted traffic, the token, the done
// announcement alike — are stashed until it does.
//
// Reliability runs first: acks retire sender credits, and counted
// messages carrying a MsgID pass the dedup filter BEFORE the epoch
// guards — a late duplicate of a finished epoch's message must be
// re-acked and discarded, not treated as a protocol violation. An
// accepted first copy is re-marked with MsgID -1 so its processing
// (immediately or later from the stash) uses ack-based detector
// accounting exactly once.
func (rc *Context) dispatch(m comm.Message) {
	if m.Kind == kindAck {
		rc.onAck(m)
		return
	}
	if m.MsgID > 0 {
		if !rc.accept(m) {
			return
		}
		m.MsgID = -1
	}
	if m.Epoch != 0 && (!rc.inEpoch || m.Epoch != rc.epochSeq) {
		if m.Epoch != rc.epochSeq+1 {
			panic(fmt.Sprintf("amt: rank %d got kind-%d message for epoch %d (now %d)",
				rc.rank, m.Kind, m.Epoch, rc.epochSeq))
		}
		rc.stash = append(rc.stash, m)
		return
	}
	switch m.Kind {
	case kindUser:
		rc.countReceive(m)
		rc.Stats[HandlerCalls].Add(1)
		h := HandlerID(m.Handler)
		fn := rc.rt.handler(h)
		if rc.tr == nil {
			fn(rc, core.Rank(m.From), m.Data)
		} else {
			rc.timedHandler(h, m.From, -1, func() {
				fn(rc, core.Rank(m.From), m.Data)
			})
		}
	case kindObject:
		rc.dispatchObject(m)
	case kindMigrate:
		rc.installMigration(m)
	case kindLocUpdate:
		env := m.Data.(locEnvelope)
		rc.countReceive(m)
		rc.location[env.Obj] = env.Loc
	case kindToken:
		if rc.depth > rc.tokenDepth {
			rc.tokenDepth = rc.depth
		}
		rc.open.OnToken(m.Data.(*termination.Token))
	case kindDone:
		rc.forwardDone()
		rc.epochDone = true
	case kindCollUp:
		rc.onCollUp(m)
	case kindCollDown:
		rc.onCollDown(m)
	default:
		panic(fmt.Sprintf("amt: unknown message kind %d", m.Kind))
	}
}

// timedHandler runs a handler invocation under the clock, for the tracer's
// handler span. Only called with a tracer attached; every other dispatch,
// metrics-only included, reads no clock.
func (rc *Context) timedHandler(h HandlerID, from int, obj ObjectID, run func()) {
	lent := rc.lentTime
	start := clock.Now()
	run()
	// Self time: what the handler spent running other ranks it borrowed
	// is those ranks' handler time, not this one's.
	elapsed := clock.Since(start) - (rc.lentTime - lent)
	rc.Emit(obs.Event{Type: obs.EvHandler, Peer: from, Object: int64(obj),
		Name: rc.rt.handlerName(h), Dur: elapsed})
}

// forwardDone relays the open epoch's done announcement to this rank's
// tree children. The terminating root starts it, and every rank forwards
// it exactly once on processing, so the broadcast costs each rank at most
// fanout sends instead of putting all P−1 on the root. Pushed, never
// claimed (see transmit).
func (rc *Context) forwardDone() {
	for i := 0; i < rc.nKids; i++ {
		rc.rt.nw.Send(comm.Message{
			From: int(rc.rank), To: rc.child(i), Kind: kindDone, Epoch: rc.epochSeq,
		})
	}
}

// countReceive feeds one counted receipt to the open epoch's detector (a
// message dispatched this far belongs to it, or to no epoch). A negative
// MsgID marks a delivery the reliability layer accepted: the receiver
// only blackens, and the counter decrement happens on the sender when
// the ack arrives (see reliable.go).
func (rc *Context) countReceive(m comm.Message) {
	if m.Epoch == 0 {
		return
	}
	if m.MsgID < 0 {
		rc.open.OnDeliver()
		return
	}
	rc.open.OnReceive()
}
