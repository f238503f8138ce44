package comm

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

// Stats is a snapshot of what a Network has counted since it was made,
// per message kind: messages sent (every Send and SendClaim, whatever
// became of the message), their payload bytes (zero unless byte accounting
// was on when they were sent), and the messages its fault plan dropped and
// duplicated (a duplicated message counts once, however many copies
// landed). It is the only place these facts are counted; everything that
// reports them reads a snapshot.
type Stats struct {
	Sent, Bytes, Dropped, Duplicated KindCounts
}

// Add folds another network's snapshot into s.
func (s *Stats) Add(o Stats) {
	for k := range s.Sent {
		s.Sent[k] += o.Sent[k]
		s.Bytes[k] += o.Bytes[k]
		s.Dropped[k] += o.Dropped[k]
		s.Duplicated[k] += o.Duplicated[k]
	}
}

// WireStats are the cross-process counters of a socket transport (the
// wire package's; an in-memory job has none): encoded frames and payload
// bytes in each direction, the number of connected peer processes, and
// redials (connection attempts beyond the first per peer). All counters
// are cumulative.
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
