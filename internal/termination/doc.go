// Package termination implements distributed termination detection for
// the AMT runtime's epochs: Safra's ring-based extension of Dijkstra's
// algorithm, which tolerates asynchronous message passing. The paper's
// vt runtime relies on exactly this class of algorithm to detect when
// "all causally related gossip messages have been received and
// processed" (§IV-B).
//
// The detector supports two accounting modes. The classic one pairs
// OnSend with OnReceive (counter per message in flight). Under a lossy
// transport the runtime instead pairs OnSend with OnAck — the counter
// tracks unacknowledged sends, and OnDeliver merely blackens the
// receiver — so the ring only whitens once every counted message has
// been delivered and acknowledged exactly once, no matter how many
// transport-level drops, duplicates or retransmissions occurred.
//
// # Concurrency
//
// Each rank holds its own Detector — one for the runtime's life, Reset
// at every epoch's entry — driven exclusively by whoever runs that rank
// as it sends, receives and goes idle: one goroutine at a time, the
// runtime's guarantee. Detectors communicate only via token messages on
// the comm transport's goroutine-safe inboxes. TryHandOff returns the
// hop and sends nothing; the runtime may make it from another goroutine
// than the one that ran the rank, after that rank has been let go (a
// wave over parked ranks is followed by one goroutine, amt's
// Context.lend). Safra's rule does not care who carries the token, only
// that the rank was passive when it left: inbox empty, no handler open.
package termination
