package comm

import "time"

// Transport is the pluggable message substrate underneath the AMT
// runtime. The in-memory Network is the reference implementation; the
// wire package's socket transport embeds a partial Network and forwards
// remote traffic over TCP or Unix domain sockets. The runtime holds a
// Transport, never a concrete type, so the protocol stack above cannot
// observe which one it is running on — the cross-transport identity
// tests pin that down to the bit level.
//
// Semantics every implementation must provide:
//
//   - Send never blocks and stamps a per-sender sequence number; fault
//     plans (SetFaultPlan) are applied exactly once, at the sending
//     side, keyed by that sequence number.
//   - Per-sender FIFO order is preserved for undelayed deliveries,
//     plain sends and claims alike.
//   - At most one goroutine runs a rank at a time: SendClaim grants a
//     rank only while its owner is parked in WaitOwned, and the owner
//     does not return from WaitOwned until the borrower has released it.
//     Every hand-over — a granted claim, a Release, a return from
//     WaitOwned — orders the previous runner's writes before the next
//     runner's reads; in the Network each is one CAS of the inbox's
//     state word.
//   - RecvBatch serves only ranks inside LocalRange; a transport
//     hosting a slice of a larger job forwards everything else.
//   - Close drains: no message accepted by Send before Close may be
//     lost because of Close (delayed deliveries land, outbound wire
//     queues flush before the connection drops).
type Transport interface {
	// NumRanks returns the total rank count of the job, across every
	// process participating in it.
	NumRanks() int
	// LocalRange returns the contiguous half-open rank range [lo, hi)
	// hosted by this transport instance. The in-memory Network hosts
	// every rank: (0, NumRanks).
	LocalRange() (lo, hi int)

	Send(Message)
	RecvBatch(rank int, buf []Message) []Message

	// The ownership trio (see Network): SendClaim is Send that may hand
	// the caller a parked local destination rank to run, Release ends
	// that borrow, and WaitOwned is where a rank's owner parks. A
	// transport that never grants a claim is correct, only slower.
	SendClaim(Message) bool
	Release(rank int, wake bool) bool
	WaitOwned(rank int, d time.Duration) (ok, timedOut bool)

	Close()
	Closed() bool

	SetFaultPlan(*FaultPlan)

	// EnableByteAccounting sizes every later send's payload (see Stats);
	// the runtime switches it on in Run when metrics or a stream is
	// attached.
	EnableByteAccounting(size func(any) int)
	// Stats snapshots the per-kind accounting; safe at any time.
	Stats() Stats
}

// The in-memory Network is the reference Transport.
var _ Transport = (*Network)(nil)

// KindCounts holds one count per message kind.
type KindCounts [MaxKinds]int64

// Total sums the counts over all kinds.
func (c KindCounts) Total() int64 {
	total := int64(0)
	for _, v := range c {
		total += v
	}
	return total
}

// Stats is a snapshot of what a transport has counted since it was made,
// per message kind: messages sent (every Send and SendClaim, whatever
// became of the message), their payload bytes (zero unless byte accounting
// was on when they were sent), and the messages its fault plan dropped and
// duplicated (a duplicated message counts once, however many copies
// landed). It is the only place these facts are counted; everything that
// reports them reads a snapshot.
type Stats struct {
	Sent, Bytes, Dropped, Duplicated KindCounts
}

// Add folds another transport's snapshot into s.
func (s *Stats) Add(o Stats) {
	for k := range s.Sent {
		s.Sent[k] += o.Sent[k]
		s.Bytes[k] += o.Bytes[k]
		s.Dropped[k] += o.Dropped[k]
		s.Duplicated[k] += o.Duplicated[k]
	}
}

// WireStats are the cross-process counters of a socket-backed
// transport: encoded frames and payload bytes in each direction, the
// number of connected peer processes, and redials (connection attempts
// beyond the first per peer). All counters are cumulative.
type WireStats struct {
	FramesOut, BytesOut int64
	FramesIn, BytesIn   int64
	Peers               int64
	Redials             int64
	// QueueHighWater is the deepest per-peer writer queue observed (in
	// messages, across all peers) — the early-warning gauge for a peer
	// that has stopped draining.
	QueueHighWater int64
}

// Add folds another transport's counters into s: sums, and the deeper of
// the two queue high-water marks.
func (s *WireStats) Add(o WireStats) {
	s.FramesOut += o.FramesOut
	s.BytesOut += o.BytesOut
	s.FramesIn += o.FramesIn
	s.BytesIn += o.BytesIn
	s.Peers += o.Peers
	s.Redials += o.Redials
	s.QueueHighWater = max(s.QueueHighWater, o.QueueHighWater)
}

// WireStater is implemented by transports that move bytes between
// processes; the runtime folds the stats into its metrics registry and
// observability frames. The in-memory Network does not implement it.
type WireStater interface {
	WireStats() WireStats
}

// RTTHinter is implemented by transports that can estimate the round
// trip time to their slowest peer. The runtime folds the estimate into
// the default retransmission timeout of its reliability layer, so
// retries pace to real network latency instead of the in-memory
// defaults.
type RTTHinter interface {
	RTTHint() time.Duration
}
