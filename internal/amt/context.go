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

// envelope wraps user payloads with the epoch tag used by termination
// detection. EpochID 0 means the message is not part of any epoch.
type envelope struct {
	EpochID int64
	Data    any
}

// objEnvelope routes object-directed messages.
type objEnvelope struct {
	EpochID int64
	Obj     ObjectID
	Origin  core.Rank // logical sender (preserved across forwards)
	Data    any
}

// migrateEnvelope carries a migrating object's state.
type migrateEnvelope struct {
	EpochID int64
	Obj     ObjectID
	State   any
	Bytes   int
}

// locEnvelope updates the home rank's location directory.
type locEnvelope struct {
	EpochID int64
	Obj     ObjectID
	Loc     core.Rank
}

// tokenEnvelope carries the Safra probe.
type tokenEnvelope struct {
	EpochID int64
	Token   termination.Token
}

// Context is a logical rank's handle to the runtime. All of its methods
// must be called from the rank's own goroutine (the one running main or
// a handler dispatched on it).
type Context struct {
	rt   *Runtime
	rank core.Rank
	n    int

	epochSeq  int64 // id of the current (or last) epoch entered
	inEpoch   bool
	epochDone bool
	// open is the detector of epoch epochSeq while that epoch is open
	// (nil otherwise): the one every counted send and receive of the
	// epoch goes to, kept here so the per-message path skips the map.
	// detectors holds the same detector plus any created for another id.
	open      *termination.Detector
	detectors map[int64]*termination.Detector
	pending   map[int64][]comm.Message

	// rel is the ack/retry reliability layer, non-nil only when the
	// runtime's fault plan can drop or duplicate counted messages.
	rel *reliableState

	// Collective tree geometry, fixed at construction from the runtime's
	// fanout k: parent is (rank−1)/k (−1 on the root), children are the
	// contiguous range [childBase, childBase+nKids). treeDepth is the
	// depth of the deepest rank, collMsgs the messages this rank sends
	// per collective (one up-partial plus one down-copy per child) —
	// both stamped onto EvCollective spans.
	parent    int
	childBase int
	nKids     int
	treeDepth int
	collMsgs  int

	collSeq       int64
	collUp        map[int64]*collState // child partials per collective seq
	collResult    map[int64][]float64  // down-phase results received
	collHasResult map[int64]bool
	smallBuf      [1]float64 // scratch for the scalar collective wrapper

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

	// tr and ins mirror the runtime's tracer and metric handles; both are
	// nil when observability is off, so instrumented paths pay one
	// pointer comparison.
	tr  obs.Tracer
	ins *instruments

	// Stats counts this rank's traffic for experiment accounting.
	Stats ContextStats
}

// ContextStats aggregates per-rank runtime statistics.
type ContextStats struct {
	UserSent       int
	ObjectSent     int
	Forwards       int
	Migrations     int
	MigrationBytes int
	EpochsRun      int
	Collectives    int
}

func newContext(rt *Runtime, rank core.Rank) *Context {
	rc := &Context{
		rt:            rt,
		rank:          rank,
		n:             rt.n,
		detectors:     make(map[int64]*termination.Detector),
		pending:       make(map[int64][]comm.Message),
		collUp:        make(map[int64]*collState),
		collResult:    make(map[int64][]float64),
		collHasResult: make(map[int64]bool),
		objects:       make(map[ObjectID]any),
		location:      make(map[ObjectID]core.Rank),
		tr:            rt.tracer,
		ins:           rt.ins,
	}
	k := rt.fanout
	r := int(rank)
	rc.parent = -1
	if r > 0 {
		rc.parent = (r - 1) / k
	}
	rc.childBase = k*r + 1
	if rc.childBase < rt.n {
		rc.nKids = rt.n - rc.childBase
		if rc.nKids > k {
			rc.nKids = k
		}
	} else {
		rc.childBase = rt.n // empty range even for huge ranks
	}
	for d := rt.n - 1; d > 0; d = (d - 1) / k {
		rc.treeDepth++
	}
	rc.collMsgs = rc.nKids
	if rc.parent >= 0 {
		rc.collMsgs++
	}
	if rt.reliable {
		rc.rel = newReliableState(rt.n, rt.retryBase, rt.retryCap)
	}
	if lo, _ := rt.nw.LocalRange(); r == lo {
		rc.stream = rt.stream
	}
	return rc
}

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
		if _, wired := rc.rt.nw.(comm.WireStater); wired {
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

// TransportTotals returns the transport's cumulative message and
// payload-byte counts across all kinds (bytes are zero unless byte
// accounting is on — metrics or streaming enabled). Safe to call during
// Run; the totals are monotone atomics.
func (rc *Context) TransportTotals() (msgs, bytes int64) {
	return rc.rt.nw.TotalSent(), rc.rt.nw.TotalBytes()
}

// WireTotals returns the socket transport's frame counters and reports
// whether the runtime is on one; on the in-memory transport ok is
// false. Safe to call during Run.
func (rc *Context) WireTotals() (st comm.WireStats, ok bool) {
	ws, ok := rc.rt.nw.(comm.WireStater)
	if !ok {
		return comm.WireStats{}, false
	}
	return ws.WireStats(), true
}

// FaultTotals returns the runtime's cumulative fault-injection and
// recovery counters (all zero without a fault plan). Safe to call
// during Run.
func (rc *Context) FaultTotals() FaultStats { return rc.rt.FaultStats() }

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
func (rc *Context) Send(to core.Rank, h HandlerID, data any) {
	if _, ok := rc.rt.handlers[h]; !ok {
		panic(fmt.Sprintf("amt: Send to unregistered handler %d", h))
	}
	rc.Stats.UserSent++
	rc.send(comm.Message{
		From:    int(rc.rank),
		To:      int(to),
		Kind:    kindUser,
		Handler: int32(h),
		Data:    envelope{EpochID: rc.activeEpoch(), Data: data},
	})
}

// send stamps epoch accounting and hands the message to the transport.
// Under the reliability layer every epoch-counted send also gets a
// MsgID and a retransmission credit (see reliable.go).
func (rc *Context) send(m comm.Message) {
	if id := msgEpoch(m); id != 0 {
		rc.detector(id).OnSend()
		if rc.rel != nil {
			rc.rel.track(&m, id)
		}
	}
	rc.rt.nw.Send(m)
}

func (rc *Context) activeEpoch() int64 {
	if rc.inEpoch {
		return rc.epochSeq
	}
	return 0
}

func (rc *Context) detector(id int64) *termination.Detector {
	if id == rc.epochSeq && rc.open != nil {
		return rc.open
	}
	d, ok := rc.detectors[id]
	if !ok {
		d = termination.New(int(rc.rank), rc.n)
		rc.detectors[id] = d
	}
	return d
}

// msgEpoch extracts the epoch tag from any counted message kind.
func msgEpoch(m comm.Message) int64 {
	switch m.Kind {
	case kindUser:
		return m.Data.(envelope).EpochID
	case kindObject:
		return m.Data.(objEnvelope).EpochID
	case kindMigrate:
		return m.Data.(migrateEnvelope).EpochID
	case kindLocUpdate:
		return m.Data.(locEnvelope).EpochID
	default:
		return 0
	}
}

// Poll processes one pending message if any is queued and reports
// whether it did. Use it to keep the scheduler turning during local
// work outside epochs.
func (rc *Context) Poll() bool {
	m, ok := rc.rt.nw.Recv(int(rc.rank))
	if !ok {
		return false
	}
	rc.dispatch(m)
	return true
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
	rc.Stats.EpochsRun++
	d := rc.detector(rc.epochSeq)
	rc.open = d

	var epochStart time.Time
	if rc.tr != nil || rc.ins != nil {
		epochStart = clock.Now()
	}
	if rc.tr != nil {
		rc.Emit(obs.Event{Type: obs.EvEpochOpen, Peer: -1, Object: -1, Epoch: rc.epochSeq})
	}

	body()

	// Deliver messages that raced ahead of our entry — after body, so the
	// rank's own burst always runs on pre-epoch state: whether a peer's
	// message beat us into the epoch (a scheduling and transport-delay
	// accident) cannot change what body observes.
	if stash := rc.pending[rc.epochSeq]; len(stash) > 0 {
		delete(rc.pending, rc.epochSeq)
		for _, m := range stash {
			rc.dispatch(m)
		}
	}

	for !rc.epochDone {
		// Drain everything already queued — we are active while messages
		// remain — in batches: one inbox lock per burst, with the buffer
		// (and the payload references it holds) reused and scrubbed
		// between bursts.
		for {
			rc.batch = rc.rt.nw.RecvBatch(int(rc.rank), rc.batch[:0])
			if len(rc.batch) == 0 {
				break
			}
			for i := range rc.batch {
				rc.dispatch(rc.batch[i])
				rc.batch[i] = comm.Message{}
			}
		}
		if rc.epochDone {
			break
		}
		// Passive: participate in the termination probe.
		if t, next, send := d.TryHandOff(); send {
			if rc.tr != nil {
				rc.Emit(obs.Event{Type: obs.EvTokenRound, Peer: next, Object: -1,
					Epoch: rc.epochSeq, Value: float64(t.Wave)})
			}
			rc.rt.nw.Send(comm.Message{
				From: int(rc.rank), To: next, Kind: kindToken,
				Data: tokenEnvelope{EpochID: rc.epochSeq, Token: t},
			})
		}
		if d.Terminated() { // only rank 0
			rc.forwardDone(rc.epochSeq)
			break
		}
		m, ok := rc.recvEpoch()
		if !ok {
			panic("amt: network closed inside epoch")
		}
		rc.dispatch(m)
	}
	rc.assertAcked(rc.epochSeq)
	waves := d.Wave()
	rc.inEpoch = false
	rc.open = nil
	delete(rc.detectors, rc.epochSeq)
	if rc.tr != nil || rc.ins != nil {
		elapsed := clock.Since(epochStart)
		if rc.tr != nil {
			rc.Emit(obs.Event{Type: obs.EvEpochClose, Peer: -1, Object: -1,
				Epoch: rc.epochSeq, Value: float64(waves), Dur: elapsed})
		}
		if rc.ins != nil {
			rc.ins.epochs.Inc()
			rc.ins.epochSeconds.Observe(int(rc.rank), elapsed.Seconds())
			rc.ins.tokenRounds.Add(int64(waves))
		}
	}
}

// dispatch routes one transport message. Counted messages belonging to a
// future epoch are stashed until this rank enters it.
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
	if id := msgEpoch(m); id != 0 && (!rc.inEpoch || id != rc.epochSeq) {
		if id <= rc.epochSeq {
			panic(fmt.Sprintf("amt: rank %d got message for finished epoch %d (now %d)",
				rc.rank, id, rc.epochSeq))
		}
		rc.pending[id] = append(rc.pending[id], m)
		return
	}
	switch m.Kind {
	case kindUser:
		env := m.Data.(envelope)
		rc.countReceive(env.EpochID, m.MsgID)
		h := HandlerID(m.Handler)
		fn := rc.rt.handlers[h]
		if rc.tr == nil && rc.ins == nil {
			fn(rc, core.Rank(m.From), env.Data)
		} else {
			rc.timedHandler(h, m.From, -1, func() {
				fn(rc, core.Rank(m.From), env.Data)
			})
		}
	case kindObject:
		rc.dispatchObject(m)
	case kindMigrate:
		rc.installMigration(m)
	case kindLocUpdate:
		env := m.Data.(locEnvelope)
		rc.countReceive(env.EpochID, m.MsgID)
		rc.location[env.Obj] = env.Loc
	case kindToken:
		env := m.Data.(tokenEnvelope)
		rc.stashableToken(env, m)
	case kindDone:
		id := m.Data.(int64)
		if !rc.inEpoch || id != rc.epochSeq {
			// Raced ahead of our entry: stash; the replay after entry
			// forwards it down the tree exactly once.
			rc.pending[id] = append(rc.pending[id], m)
			return
		}
		rc.forwardDone(id)
		rc.epochDone = true
	case kindCollUp:
		rc.onCollUp(m)
	case kindCollDown:
		rc.onCollDown(m)
	default:
		panic(fmt.Sprintf("amt: unknown message kind %d", m.Kind))
	}
}

// timedHandler runs a handler invocation under the tracer/metrics
// instrumentation. Only called when at least one of the two is active;
// the uninstrumented dispatch path never reaches it.
func (rc *Context) timedHandler(h HandlerID, from int, obj ObjectID, run func()) {
	start := clock.Now()
	run()
	elapsed := clock.Since(start)
	if rc.tr != nil {
		rc.Emit(obs.Event{Type: obs.EvHandler, Peer: from, Object: int64(obj),
			Name: rc.rt.handlerName(h), Dur: elapsed})
	}
	if rc.ins != nil {
		rc.ins.handlerCalls.Inc()
		rc.ins.handlerSeconds.Observe(int(rc.rank), elapsed.Seconds())
	}
}

// forwardDone relays the epoch-done announcement to this rank's tree
// children. The terminating root starts it, and every rank forwards it
// exactly once on processing, so the broadcast costs each rank at most
// fanout sends instead of putting all P−1 on the root.
func (rc *Context) forwardDone(id int64) {
	for c := rc.childBase; c < rc.childBase+rc.nKids; c++ {
		rc.rt.nw.Send(comm.Message{
			From: int(rc.rank), To: c, Kind: kindDone, Data: id,
		})
	}
}

func (rc *Context) stashableToken(env tokenEnvelope, m comm.Message) {
	if !rc.inEpoch || env.EpochID != rc.epochSeq {
		if env.EpochID <= rc.epochSeq {
			panic("amt: token for finished epoch")
		}
		rc.pending[env.EpochID] = append(rc.pending[env.EpochID], m)
		return
	}
	rc.detector(env.EpochID).OnToken(env.Token)
}

// countReceive feeds one counted receipt to the epoch's detector. A
// negative msgID marks a delivery the reliability layer accepted: the
// receiver only blackens, and the counter decrement happens on the
// sender when the ack arrives (see reliable.go).
func (rc *Context) countReceive(epochID, msgID int64) {
	if epochID == 0 {
		return
	}
	if msgID < 0 {
		rc.detector(epochID).OnDeliver()
		return
	}
	rc.detector(epochID).OnReceive()
}
