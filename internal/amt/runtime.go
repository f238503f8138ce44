package amt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"temperedlb/internal/comm"
	"temperedlb/internal/comm/wire"
	"temperedlb/internal/core"
	"temperedlb/internal/obs"
)

// HandlerID names a registered active-message handler.
type HandlerID int32

// Handler is a rank-level active-message handler. It runs as the
// destination rank — on that rank's own goroutine or, while the rank is
// parked, on the goroutine of whoever sent to it; never on two at once.
type Handler func(rc *Context, from core.Rank, data any)

// ObjectHandler is an object-level active-message handler: it receives
// the target object's state. It runs on the rank currently owning the
// object.
type ObjectHandler func(rc *Context, obj ObjectID, state any, from core.Rank, data any)

// Runtime owns the network and the handler registries shared by all
// ranks. Register all handlers before calling Run.
type Runtime struct {
	n int
	// nw carries every message: the in-memory network over all n ranks,
	// or the partial network of a socket node. link is that node's socket
	// transport (nil in memory), reached only for what a socket adds:
	// draining or hanging up on Close, WireStats, RTTHint, and that the
	// job spans nodes (Context.Watched).
	nw   *comm.Network
	link *wire.Transport
	// The handler tables are slices indexed by HandlerID (nil = not
	// registered): two lookups per message, so not maps.
	handlers     []Handler
	objHandlers  []ObjectHandler
	handlerNames map[HandlerID]string
	running      bool
	// bug is set by Run when its first rank panic struck while the
	// network was still open: the node's own fault, not a consequence of
	// its network closing under it (see Job.Run).
	bug bool

	// ranks holds the Context of every local rank, indexed by rank−lo and
	// sized with the network. Each rank publishes its own before it first
	// parks, which is before any sender can be granted it, so a borrower
	// always finds the entry; whoever folds the node's counters (Stats)
	// finds nil until then.
	ranks []atomic.Pointer[Context]
	lo    int

	// fanout is the arity k of the collective tree, the complete k-ary
	// tree numbered depth-first (see treeShape and collective.go). It is
	// treeFanout; only this package's tests build other shapes.
	fanout int

	// Fault recovery (see SetFaults and reliable.go): reliable switches
	// the contexts to ack/retry delivery, whose first timeout SetFaults
	// derives from the fault plan's delays.
	reliable  bool
	retryBase time.Duration

	tracer  obs.Tracer
	metrics *obs.Metrics
	foldMu  sync.Mutex // one fold into metrics at a time (see Metrics)
	stream  *obs.Stream

	// observers holds, per local rank, what observing adds to it (see
	// observer), made by Run when metrics or a stream is attached.
	observers []observer

	// epochSeconds is the registry's epoch-latency histogram, nil without
	// metrics. Like every counter family it is stored by Metrics, from the
	// ranks' own histograms (observer): a distribution cannot be folded
	// from a count, so each rank observes its epochs into its own.
	epochSeconds *obs.Histogram
}

// Option configures a Runtime at construction.
type Option func(*Runtime)

// WithTracer attaches a protocol tracer; every epoch, handler dispatch,
// collective, migration, termination-token round and phase boundary is
// emitted to it. A nil tracer (the default) costs the instrumented
// paths a single pointer comparison.
func WithTracer(t obs.Tracer) Option {
	return func(rt *Runtime) { rt.SetTracer(t) }
}

// WithMetrics enables the runtime's metrics registry (see
// EnableMetrics).
func WithMetrics() Option {
	return func(rt *Runtime) { rt.EnableMetrics() }
}

// WithStream attaches a live observability stream (see SetStream).
func WithStream(s *obs.Stream) Option {
	return func(rt *Runtime) { rt.SetStream(s) }
}

// WithTransport makes the runtime one node of a socket job: it hosts only
// the transport's local rank range, while the other ranks live behind its
// connections, in other processes or in this one (see Join and Launch).
// The transport's total rank count must be the runtime's. Without it the
// runtime hosts every rank on an in-memory network.
func WithTransport(t *wire.Transport) Option {
	return func(rt *Runtime) { rt.link = t }
}

// treeFanout is the arity of every job's collective tree: 4-ary keeps
// per-rank collective traffic at 2·4+2 messages while reaching 4096 ranks
// in 6 levels, and keeps the tree edges between two nodes' rank ranges at
// most 4 per level. Every process of a job derives its tree from it and
// the rank count, so no two nodes can disagree on the shape.
const treeFanout = 4

// New creates a runtime over n logical ranks.
func New(n int, opts ...Option) *Runtime {
	if n < 1 {
		panic(fmt.Sprintf("amt: New: n must be >= 1, got %d", n))
	}
	rt := &Runtime{
		n:            n,
		handlerNames: make(map[HandlerID]string),
		fanout:       treeFanout,
	}
	for _, opt := range opts {
		opt(rt)
	}
	if rt.link == nil {
		rt.nw = comm.NewNetwork(n)
	} else {
		rt.nw = rt.link.Network
		if rt.nw.NumRanks() != n {
			panic(fmt.Sprintf("amt: New: transport spans %d ranks, runtime %d", rt.nw.NumRanks(), n))
		}
	}
	lo, hi := rt.nw.LocalRange()
	rt.lo, rt.ranks = lo, make([]atomic.Pointer[Context], hi-lo)
	return rt
}

// SetTracer attaches a protocol tracer. Call before Run.
func (rt *Runtime) SetTracer(t obs.Tracer) {
	rt.mustNotRun("SetTracer")
	rt.tracer = t
}

// Fanout returns the collective tree's arity.
func (rt *Runtime) Fanout() int { return rt.fanout }

// SetStream attaches a live observability stream: protocol loops built
// on the runtime (the distributed balancer, the service) publish
// periodic Snapshot frames to it from the lowest rank this runtime
// hosts — in a multi-process job any node, or several, may attach one
// (see Context.Watched) — and the runtime's ranks weigh what they send
// (wire-codec bytes) so the frames can carry byte totals. A nil stream —
// the default — costs the publishing sites a single pointer comparison.
// Call before Run.
func (rt *Runtime) SetStream(s *obs.Stream) {
	rt.mustNotRun("SetStream")
	rt.stream = s
}

// Stream returns the attached observability stream (nil when streaming
// is disabled).
func (rt *Runtime) Stream() *obs.Stream { return rt.stream }

// Tracer returns the attached tracer (nil when tracing is disabled).
func (rt *Runtime) Tracer() obs.Tracer { return rt.tracer }

// NameHandler gives a registered handler a human-readable name used in
// trace events and exports; unnamed handlers appear as "h<id>".
func (rt *Runtime) NameHandler(id HandlerID, name string) {
	rt.mustNotRun("NameHandler")
	rt.handlerNames[id] = name
}

// handlerName resolves the display name of a handler id.
func (rt *Runtime) handlerName(id HandlerID) string {
	if n, ok := rt.handlerNames[id]; ok {
		return n
	}
	return fmt.Sprintf("h%d", id)
}

// NumRanks returns the number of logical ranks.
func (rt *Runtime) NumRanks() int { return rt.n }

// maxHandlerID bounds the handler id space: the tables are slices
// indexed by id.
const maxHandlerID = 1 << 16

// Register installs a rank-level handler. It must be called before Run.
func (rt *Runtime) Register(id HandlerID, h Handler) {
	rt.mustNotRun("Register")
	rt.handlers = growTable(rt.handlers, id)
	if rt.handlers[id] != nil {
		panic(fmt.Sprintf("amt: duplicate handler %d", id))
	}
	rt.handlers[id] = h
}

// RegisterObject installs an object-level handler. It must be called
// before Run.
func (rt *Runtime) RegisterObject(id HandlerID, h ObjectHandler) {
	rt.mustNotRun("RegisterObject")
	rt.objHandlers = growTable(rt.objHandlers, id)
	if rt.objHandlers[id] != nil {
		panic(fmt.Sprintf("amt: duplicate object handler %d", id))
	}
	rt.objHandlers[id] = h
}

// growTable extends a handler table so that id indexes it.
func growTable[T any](tab []T, id HandlerID) []T {
	if id < 0 || id >= maxHandlerID {
		panic(fmt.Sprintf("amt: handler id %d outside [0,%d)", id, maxHandlerID))
	}
	if n := int(id) + 1 - len(tab); n > 0 {
		tab = append(tab, make([]T, n)...)
	}
	return tab
}

// handler returns the rank-level handler registered under id, nil if
// there is none; objHandler likewise.
func (rt *Runtime) handler(id HandlerID) Handler {
	if id < 0 || int(id) >= len(rt.handlers) {
		return nil
	}
	return rt.handlers[id]
}

func (rt *Runtime) objHandler(id HandlerID) ObjectHandler {
	if id < 0 || int(id) >= len(rt.objHandlers) {
		return nil
	}
	return rt.objHandlers[id]
}

func (rt *Runtime) mustNotRun(op string) {
	if rt.running {
		panic("amt: " + op + " after Run")
	}
}

// Run executes main once per local rank, each on its own goroutine,
// and returns when every local rank's main has returned. On the
// default in-memory transport every rank is local; on a wire transport
// this process drives only its LocalRange while sibling processes run
// the rest. The first panic on any rank is re-raised on the caller after
// all other ranks are released, naming the rank that was running — which,
// under borrowed execution, need not be the one whose goroutine it was. A
// panic on a socket node hangs its transport up at once (Abort): ranks on
// other nodes parked on this one then fail fast instead of waiting out a
// drain for a goodbye that never comes.
func (rt *Runtime) Run(main func(rc *Context)) {
	rt.running = true
	lo, hi := rt.nw.LocalRange()
	// What observing adds to the ranks is made now, in one piece, for
	// whoever reads it: the metrics registry and the stream's frames.
	// Without either, no send is sized and no epoch timed.
	if rt.metrics != nil || rt.stream != nil {
		rt.observers = make([]observer, hi-lo)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		failed   any
		failedOn = core.Rank(-1) // no rank has panicked
	)
	for r := lo; r < hi; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			rc := newContext(rt, core.Rank(rank))
			rt.ranks[rank-lo].Store(rc)
			defer func() {
				if p := recover(); p != nil {
					at := rc
					for at.lentTo != nil {
						at = at.lentTo
					}
					mu.Lock()
					if failedOn < 0 {
						failed, failedOn = p, at.rank
						rt.bug = !rt.nw.Closed()
					}
					mu.Unlock()
					// Release ranks parked in the pump, here and on peers.
					if rt.link != nil {
						rt.link.Abort()
					} else {
						rt.nw.Close()
					}
				}
			}()
			main(rc)
		}(r)
	}
	wg.Wait()
	rt.close()
	if failedOn >= 0 {
		panic(fmt.Sprintf("amt: rank %d panicked: %v", failedOn, failed))
	}
}

// SetFaults installs a fault-injection spec on the transport and, when
// the spec can lose or duplicate messages, switches the runtime to
// reliable (ack/retry, deduplicated) delivery of epoch messages so
// termination detection still observes quiescence (see reliable.go).
//
// Drop and duplication apply only to the counted epoch kinds (user,
// object, migrate, locupdate): the runtime's own control traffic —
// termination tokens, done announcements, acks, collectives — rides a
// reliable channel by construction, exactly as a production transport
// would layer its protocol state over TCP while application payloads
// take a lossy fast path. Delay windows and stragglers apply to every
// kind. Call before Run; an empty spec leaves the transport (and the
// fault-free fast path) untouched.
func (rt *Runtime) SetFaults(sp comm.FaultSpec) error {
	rt.mustNotRun("SetFaults")
	if err := sp.Validate(rt.n); err != nil {
		return err
	}
	if sp.Empty() {
		rt.nw.SetFaultPlan(nil)
		rt.reliable = false
		return nil
	}
	rt.nw.SetFaultPlan(sp.Plan(kindUser, kindObject, kindMigrate, kindLocUpdate))
	rt.reliable = sp.Drop > 0 || sp.Dup > 0
	// The first retransmission deadline must exceed the worst-case ack
	// round trip under the spec's own delay bounds, or every delayed
	// delivery triggers a spurious retransmission (harmless — the dedup
	// filter absorbs it — but it floods the transport and drowns the retry
	// statistics). Both legs of the round trip are delayed (the data
	// message and its ack), each by up to DelayMax plus two straggler
	// penalties, and queueing on a busy receiver adds more: give the first
	// deadline 2x the worst-case transport round trip.
	var slow time.Duration
	for _, d := range sp.SlowRanks {
		slow = max(slow, d)
	}
	rt.retryBase = max(minTimeout, 4*(sp.DelayMax+2*slow))
	// A socket transport adds real network latency on top of the injected
	// delays; pace the retransmission clock to its measured round trip so
	// cross-machine runs do not retransmit spuriously.
	if rt.link != nil {
		rt.retryBase = max(rt.retryBase, 4*rt.link.RTTHint())
	}
	return nil
}

// close closes the runtime's network; a socket node's transport drains
// its connections first (wire.Transport.Close). Idempotent.
func (rt *Runtime) close() {
	if rt.link != nil {
		rt.link.Close()
	} else {
		rt.nw.Close()
	}
}
