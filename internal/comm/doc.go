// Package comm provides the network underneath the AMT runtime, Network:
// per-rank unbounded inboxes with blocking, non-blocking and batched
// receive (RecvBatch drains a whole burst under one lock acquisition, an
// empty inbox under none), per-sender FIFO ordering, and per-kind
// counts of the messages sent, dropped and duplicated — messages, not
// bytes: payloads are weighed above, by the runtime — read as one Stats
// snapshot. Each inbox also says who may
// run its rank — running, parked or borrowed — so that a sender can run a
// parked rank instead of waking it (SendClaim, Release, WaitOwned).
// Deadline waits reuse a single timer per inbox rather than arming a
// fresh one per call, so retry-heavy fault runs do not churn the timer
// heap. It substitutes for the MPI layer of the paper's vt runtime; everything above it (active
// messages, epochs, termination detection, collectives) is implemented
// for real on top of it. The runtime holds a *Network, never an
// interface: in memory one Network hosts every rank, and a node of a
// socket job (the wire package) hosts a partial Network whose remote
// sends leave through a forwarding hook, so every job runs on the same
// code.
//
// The network doubles as a fault harness: a FaultPlan (built from a
// FaultSpec, parsed by ParseFaultSpec) makes it drop, duplicate, delay
// or straggle messages under stateless seeded per-message decisions, so
// a given plan injects the same faults on every run regardless of
// goroutine scheduling. An absent plan leaves the fault-free fast path
// untouched. It is the module's one fault model: Network.Send is the
// only place a fault is decided, and the synchronous engine in
// internal/core simulates the reliable delivery the layers above provide.
// Recovery is not this package's job — internal/amt layers ack/retry and
// deduplication on top (see DESIGN.md §7).
//
// # Concurrency
//
// The inboxes are the concurrency boundary of the whole distributed
// stack and are fully goroutine-safe: any goroutine may Send to any
// rank while that rank's goroutine blocks in Recv, and per-sender FIFO
// order is preserved. The ownership state is part of that boundary: it
// lives in one atomic word per inbox with the queued, timed and closed
// flags, a claim is granted only while the owner is parked, and the owner
// does not leave WaitOwned before the borrower's Release — so at most one
// goroutine runs a rank at a time. Every transition is one CAS of that
// word, which orders one runner's writes before the next one's reads; the
// inbox mutex guards only the queue; and a parked owner is woken by a
// token in a one-slot channel, which a waker drops without blocking.
// Everything layered above (amt, termination, the distributed balancer)
// relies on this package for cross-rank safety and keeps its own state
// one-runner-at-a-time.
package comm
