// Package wire carries a comm.Network across OS process boundaries: a
// length-prefixed, versioned binary codec over TCP or Unix-domain
// sockets, with per-peer connection management, dial backoff and a
// graceful close-drain. Where the in-memory Network
// plays the role of the paper's MPI layer inside one process, this
// package plays it between processes — `lbplay -distributed -node k`
// hosts one Transport per process and a balancing job spans as many
// machines as the peers file names. The codec is hand-rolled
// rather than gob/protobuf so the byte layout is deterministic (fixed
// field order, big-endian, explicit version byte) and the frame decoder
// can be fuzzed against truncation, oversizing and garbage without ever
// panicking.
//
// The Transport embeds a partial in-memory Network for its local rank
// range, so sequence stamping, message counting and fault injection are
// exactly the single-process code paths; only messages whose
// destination rank lives elsewhere are encoded and shipped. That
// layering is what keeps DistResult bit-identical across
// memory/unix/tcp (TestCrossTransportIdentity): the protocol stack
// cannot observe which substrate it runs on, and the amt reliability
// layer makes wire-level reordering and loss invisible above it.
// Payload types cross the wire through an explicit registry
// (RegisterPayload) with fixed PayloadIDs — 1–31 runtime, 32–63
// balancer, 64+ applications — never by reflection.
//
// # Concurrency
//
// Send runs on the calling rank's goroutine and only appends to a
// per-peer queue under that peer's lock; a dedicated writer goroutine
// per peer owns the socket, so Send never blocks on the network and no
// socket write ever happens under a lock. One reader goroutine per
// inbound connection decodes frames and injects them into the local
// Network, which is the same cross-goroutine boundary as the
// single-process case. Close drains writers (flush, BYE, half-close),
// then readers (until peer BYEs), bounded by a drain timeout; any fatal
// wire error tears the whole transport down so blocked ranks observe a
// closed network instead of hanging on a dead peer.
package wire
