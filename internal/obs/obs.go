package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// EventType discriminates the protocol events of the distributed stack.
type EventType uint8

// The event vocabulary. Span-like activities are bracketed by paired
// Open/Begin and Close/End events on the same rank (epochs, phases, LB
// iterations); point-in-time activities are single events, optionally
// carrying a Dur when the emitting site timed the activity (handler
// dispatch, collectives).
const (
	// EvEpochOpen and EvEpochClose bracket one epoch under termination
	// detection on one rank. Epoch carries the epoch id; the close event
	// carries the epoch's wall-clock Dur and, in Value, the number of
	// termination-token waves observed by rank 0 (0 elsewhere).
	EvEpochOpen EventType = iota
	EvEpochClose
	// EvHandler is one active-message handler dispatch; Name is the
	// handler's registered name, Peer the sending rank, Dur the handler
	// run time.
	EvHandler
	// EvInformSend and EvInformRecv are gossip messages of the inform
	// stage leaving/arriving at a rank; Value carries the entry count of
	// the payload, Trial/Iteration locate the refinement step.
	EvInformSend
	EvInformRecv
	// EvTransferPropose is one transfer proposal sent to Peer (Object,
	// Value = task load). EvTransferReject and EvTransferNoCandidate
	// summarize the rejected/no-candidate decision counts of one rank's
	// transfer stage in Value.
	EvTransferPropose
	EvTransferReject
	EvTransferNoCandidate
	// EvTokenRound is one hand-off of the termination-detection token;
	// Value is the wave number, Peer the ring successor.
	EvTokenRound
	// EvMigration is one object migration leaving a rank for Peer,
	// carrying Bytes of serialized state.
	EvMigration
	// EvPhaseBegin and EvPhaseEnd bracket one application phase; the end
	// event carries the rank's summed task load in Value.
	EvPhaseBegin
	EvPhaseEnd
	// EvCollective is one completed collective call (Name identifies the
	// algorithm: "barrier", "allreduce", "allreduce_vec",
	// "allreduce_mixed", "allgather"); Dur spans entry to completion. Value
	// carries the messages this rank sent for the collective, and
	// Fanout/Depth describe the reduction tree it rode.
	EvCollective
	// EvIterBegin and EvIterEnd bracket one LB refinement iteration
	// (Trial/Iteration set); the end event carries the evaluated
	// imbalance in Value.
	EvIterBegin
	EvIterEnd
	// EvLBBegin and EvLBEnd bracket one whole LB invocation; the end
	// event carries the final imbalance in Value.
	EvLBBegin
	EvLBEnd
	// EvRetry is one retransmission of an unacknowledged epoch message
	// by the runtime's reliability layer; Peer is the destination rank,
	// Value the attempt number (2 = first retransmission).
	EvRetry
	// EvDupDrop is the receiver-side discard of an already-delivered
	// epoch message (a transport duplicate or a redundant
	// retransmission); Peer is the sending rank.
	EvDupDrop

	numEventTypes = int(EvDupDrop) + 1
)

var eventNames = [numEventTypes]string{
	EvEpochOpen:           "epoch",
	EvEpochClose:          "epoch",
	EvHandler:             "handler",
	EvInformSend:          "inform.send",
	EvInformRecv:          "inform.recv",
	EvTransferPropose:     "transfer.propose",
	EvTransferReject:      "transfer.reject",
	EvTransferNoCandidate: "transfer.nocandidate",
	EvTokenRound:          "token.round",
	EvMigration:           "migration",
	EvPhaseBegin:          "phase",
	EvPhaseEnd:            "phase",
	EvCollective:          "collective",
	EvIterBegin:           "lb.iteration",
	EvIterEnd:             "lb.iteration",
	EvLBBegin:             "lb.run",
	EvLBEnd:               "lb.run",
	EvRetry:               "retry",
	EvDupDrop:             "dup.drop",
}

// String returns the stable name used in exports.
func (t EventType) String() string {
	if int(t) < numEventTypes {
		return eventNames[t]
	}
	return fmt.Sprintf("event(%d)", int(t))
}

// Event is one protocol event. Zero-valued fields mean "not applicable";
// Peer and Object use -1 for that instead, since 0 is a valid rank and
// object id.
type Event struct {
	Type EventType
	// Rank is the emitting rank (the trace track the event lands on).
	Rank int
	// Peer is the other rank of the interaction, or -1.
	Peer int
	// Trial and Iteration locate LB refinement events (1-based, 0 when
	// not inside the balancer).
	Trial     int
	Iteration int
	// Epoch is the runtime epoch id the event belongs to (0 = none).
	Epoch int64
	// Object is the migratable object concerned, or -1.
	Object int64
	// Value is an event-type-specific magnitude (entry count, load,
	// imbalance, wave number).
	Value float64
	// Bytes is the payload size where accounted.
	Bytes int
	// Fanout and Depth describe the collective tree for EvCollective
	// events: the configured arity and the depth of its deepest rank
	// (0 when not applicable).
	Fanout int
	Depth  int
	// Name further qualifies the event (handler or collective name).
	Name string
	// TS is the event timestamp on the recorder's monotonic clock
	// (time since recording started). The Recorder stamps it on Emit;
	// hand-built event slices (e.g. virtual-time exports) set it
	// directly.
	TS time.Duration
	// Dur is the activity duration for events that time a completed
	// activity (handlers, collectives, close events); 0 for instants.
	Dur time.Duration
}

// Tracer consumes protocol events. Implementations must be safe for
// concurrent Emit from many rank goroutines. A nil Tracer means tracing
// is disabled; emitting sites must check for nil before building events
// so the disabled hot path pays only the comparison.
type Tracer interface {
	Emit(Event)
}

// recorderShards spreads concurrent emitters over independent locks;
// events are re-ordered by timestamp at export time, so shard assignment
// only matters for contention, not correctness.
const recorderShards = 16

// Recorder is the standard collecting Tracer: events are appended to
// per-shard buffers (sharded by emitting rank) under short critical
// sections and merged on demand. All timestamps are relative to the
// Recorder's creation.
type Recorder struct {
	start  time.Time
	shards [recorderShards]recorderShard
}

type recorderShard struct {
	mu     sync.Mutex
	events []Event
	_      [32]byte // keep neighbouring shard locks off one cache line
}

// NewRecorder creates an empty Recorder; its clock starts now.
func NewRecorder() *Recorder {
	return &Recorder{start: time.Now()}
}

// Emit stamps the event with the recorder-relative timestamp and stores
// it. Safe for concurrent use.
func (r *Recorder) Emit(e Event) {
	e.TS = time.Since(r.start)
	s := &r.shards[uint(e.Rank)%recorderShards]
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		n += len(s.events)
		s.mu.Unlock()
	}
	return n
}

// Events returns a copy of all recorded events sorted by timestamp.
func (r *Recorder) Events() []Event {
	var out []Event
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		out = append(out, s.events...)
		s.mu.Unlock()
	}
	sortEvents(out)
	return out
}

// Reset discards all recorded events and restarts the clock.
func (r *Recorder) Reset() {
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		s.events = nil
		s.mu.Unlock()
	}
	r.start = time.Now()
}

// sortEvents orders by TS, breaking ties by rank then type so exports
// are deterministic for events stamped in the same clock tick.
func sortEvents(events []Event) {
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.Type < b.Type
	})
}
