package temperedlb

import (
	"temperedlb/internal/amt"
	"temperedlb/internal/comm"
	"temperedlb/internal/comm/wire"
	"temperedlb/internal/lb/tempered"
)

// AMT runtime surface: logical ranks, active messages, epochs under
// distributed termination detection, collectives, and migratable
// objects — the substrate the distributed balancer runs on.
type (
	// Runtime owns the network and handler registries.
	Runtime = amt.Runtime
	// RankContext is a logical rank's handle inside Runtime.Run.
	RankContext = amt.Context
	// HandlerID names a registered active-message handler.
	HandlerID = amt.HandlerID
	// ObjectID identifies a migratable object.
	ObjectID = amt.ObjectID
	// PhaseStats is one rank's per-phase task instrumentation. Its Loads
	// is the rank's own map, valid until the rank's next PhaseBegin.
	PhaseStats = amt.PhaseStats
	// Collection is a distributed indexed array of migratable objects
	// (vt's collection concept); create with RankContext.CreateCollection.
	Collection = amt.Collection
	// CollectionID names a collection; all ranks must agree on it.
	CollectionID = amt.CollectionID
	// LoadModel predicts next-phase loads from phase observations under
	// the principle of persistence.
	LoadModel = amt.LoadModel
	// ReduceOp selects the AllReduce combiner.
	ReduceOp = amt.ReduceOp
	// LBHandlers bundles the distributed balancer's active-message
	// handlers; register once before Runtime.Run.
	LBHandlers = tempered.Handlers
	// DistributedResult reports a distributed LB invocation.
	DistributedResult = tempered.DistResult
	// FaultSpec describes deterministic transport fault injection — drop
	// and duplication probabilities, delay windows, per-rank stragglers —
	// installed with Runtime.SetFaults before Run.
	FaultSpec = comm.FaultSpec
	// FaultStats reports a fault plan's injections and the runtime's
	// recovery work; read with Runtime.FaultStats.
	FaultStats = amt.FaultStats
	// WireStats are a socket transport's cumulative frame, byte and
	// connection counters (zero-valued on the in-memory transport).
	WireStats = comm.WireStats
)

// Reduction operators.
const (
	ReduceSum = amt.ReduceSum
	ReduceMax = amt.ReduceMax
	ReduceMin = amt.ReduceMin
)

// NewRuntime creates an AMT runtime over n logical ranks, each with its
// own goroutine once Run is called; a rank parked in an epoch or a
// collective may have its handlers run by the goroutine of a rank that
// sends to it, never by two at once. Options attach observability
// (WithTracer for protocol event tracing, WithMetrics for the counter/
// histogram registry).
func NewRuntime(n int, opts ...RuntimeOption) *Runtime { return amt.New(n, opts...) }

// WithTransport makes the runtime one node of a socket job: a TCP or
// Unix-socket transport hosting this node's rank range (see `lbplay
// -node`). The default is the in-memory network spanning every rank. The
// transport's total rank count must match the runtime's.
func WithTransport(t *wire.Transport) RuntimeOption { return amt.WithTransport(t) }

// ParseFaultSpec parses a comma-separated fault directive such as
// "seed=7,drop=0.01,dup=0.01,delay=5ms,slow=3:2ms" into a FaultSpec.
// See internal/comm.ParseFaultSpec for the full key set.
func ParseFaultSpec(s string) (FaultSpec, error) { return comm.ParseFaultSpec(s) }

// NewLoadModel creates a persistence-based load predictor with
// smoothing factor alpha in (0,1]; alpha = 1 is pure persistence.
func NewLoadModel(alpha float64) *LoadModel { return amt.NewLoadModel(alpha) }

// RegisterLBHandlers installs the distributed balancer's handlers on the
// runtime, claiming handler ids base, base+1 and base+2. Call before
// Runtime.Run and pass the result to RunDistributedLB on every rank.
func RegisterLBHandlers(rt *Runtime, base HandlerID) *LBHandlers {
	return tempered.RegisterHandlers(rt, base)
}

// RunDistributedLB executes the full TemperedLB protocol collectively:
// gossip epochs as real active messages under termination detection,
// concurrent transfer decisions, refinement over trials and iterations,
// and a commit epoch that migrates the chosen objects. loads maps each
// of the calling rank's local objects to its instrumented load (e.g.
// from PhaseStats.Loads). It returns an error, the same on every rank,
// for an invalid configuration. The result's History is valid until the
// rank's next invocation on the same handlers; copy it to keep it longer.
func RunDistributedLB(rc *RankContext, h *LBHandlers, cfg Config, loads map[ObjectID]float64) (DistributedResult, error) {
	return tempered.RunDistributed(rc, h, cfg, loads)
}
