package temperedlb

import (
	"io"

	"temperedlb/internal/amt"
	"temperedlb/internal/obs"
)

// Observability surface: protocol-level tracing and metrics for the
// distributed stack. Attach a tracer and/or metrics registry at runtime
// construction; with neither attached, the instrumented paths cost a
// single nil pointer comparison.
//
//	rec := temperedlb.NewTraceRecorder()
//	rt := temperedlb.NewRuntime(16, temperedlb.WithTracer(rec), temperedlb.WithMetrics())
//	... run ...
//	temperedlb.WriteChromeTrace(f, rec.Events()) // open in Perfetto
//	temperedlb.WritePrometheus(os.Stdout, rt.Metrics())
type (
	// Tracer consumes protocol trace events; implementations must be
	// safe for concurrent Emit.
	Tracer = obs.Tracer
	// TraceEvent is one protocol event (epoch, gossip message, transfer
	// proposal, migration, collective, ...).
	TraceEvent = obs.Event
	// TraceEventType discriminates trace events.
	TraceEventType = obs.EventType
	// TraceRecorder is the standard collecting Tracer.
	TraceRecorder = obs.Recorder
	// Metrics is the lock-cheap registry of counters, gauges and
	// fixed-bucket latency histograms returned by Runtime.Metrics.
	Metrics = obs.Metrics
	// Stream is the live frame publisher: a fixed ring of Snapshot
	// frames plus drop-oldest subscribers.
	Stream = obs.Stream
	// Snapshot is one frame of the observability stream.
	Snapshot = obs.Snapshot
	// RuntimeOption configures NewRuntime.
	RuntimeOption = amt.Option
)

// Trace event types.
const (
	EvEpochOpen           = obs.EvEpochOpen
	EvEpochClose          = obs.EvEpochClose
	EvHandler             = obs.EvHandler
	EvInformSend          = obs.EvInformSend
	EvInformRecv          = obs.EvInformRecv
	EvTransferPropose     = obs.EvTransferPropose
	EvTransferReject      = obs.EvTransferReject
	EvTransferNoCandidate = obs.EvTransferNoCandidate
	EvTokenRound          = obs.EvTokenRound
	EvMigration           = obs.EvMigration
	EvPhaseBegin          = obs.EvPhaseBegin
	EvPhaseEnd            = obs.EvPhaseEnd
	EvCollective          = obs.EvCollective
	EvIterBegin           = obs.EvIterBegin
	EvIterEnd             = obs.EvIterEnd
	EvLBBegin             = obs.EvLBBegin
	EvLBEnd               = obs.EvLBEnd
)

// NewTraceRecorder creates an empty event recorder; its clock starts
// now.
func NewTraceRecorder() *TraceRecorder { return obs.NewRecorder() }

// WithTracer attaches a tracer to a new runtime; every epoch, handler
// dispatch, collective, migration, termination-token round, phase
// boundary and distributed-balancer protocol step is emitted to it.
func WithTracer(t Tracer) RuntimeOption { return amt.WithTracer(t) }

// WithMetrics enables the runtime's metrics registry and transport byte
// accounting; read the registry with Runtime.Metrics after (or during)
// Run.
func WithMetrics() RuntimeOption { return amt.WithMetrics() }

// WriteChromeTrace exports events as Chrome trace_event JSON — load the
// file in Perfetto (ui.perfetto.dev) or chrome://tracing; each rank
// appears as its own track.
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	return obs.WriteChromeTrace(w, events)
}

// WritePrometheus exports a metrics registry in Prometheus text
// exposition format.
func WritePrometheus(w io.Writer, m *Metrics) error { return obs.WritePrometheus(w, m) }

// NewStream creates a frame stream with the given ring capacity (<= 0
// selects the default).
func NewStream(capacity int) *Stream { return obs.NewStream(capacity) }

// WithStream attaches a frame stream to a new runtime: the distributed
// balancer publishes one frame per protocol step (per-rank loads — 64
// max-cells beyond 64 ranks — imbalance, traffic and fault counters)
// from the lowest rank of every node that attached one.
func WithStream(s *Stream) RuntimeOption { return amt.WithStream(s) }
