// Package amt is the asynchronous many-task runtime substrate — the
// stand-in for the paper's DARMA/vt tasking library (§III). It provides
// logical ranks with one goroutine each, active messages with
// registered handlers, epochs terminated by distributed termination
// detection (Safra's algorithm over the same transport), rank
// collectives (barrier, all-reduce, all-gather), migratable objects with
// a forwarding location manager, and per-phase task instrumentation
// feeding the load balancers.
//
// The programming model is SPMD-with-tasks: Runtime.Run starts one
// goroutine per rank executing the supplied main function; inside it,
// ranks exchange active messages and call collectives in matching order.
//
// # Collectives
//
// Every collective rides one engine (collective.go): a reduction up a
// 4-ary rank tree followed by a broadcast back down. The tree is a
// function of the rank count alone, so each node of a multi-process job
// builds the same one without telling its peers. Per collective a rank
// sends at most 4+1 messages — and receives as many — instead of the
// 2(P−1) a star topology funnels through rank 0, and the critical path is
// one sweep of depth ceil(log_4 P), which is what lets the distributed
// balancer run at the paper's 4096-rank scale. The complete tree is
// numbered depth-first, so every subtree is a contiguous rank range and a
// node's contiguous share of the ranks reaches the rest of the tree
// through at most 4·depth edges per node boundary: a collective crosses a
// socket a few times, not once per remote rank. The combine order is
// fixed by the topology (own value, then children by ascending rank),
// never by message arrival order, so floating-point reductions are
// bit-identical across runs even under delays, stragglers and faults. Each rank folds into one
// partial buffer reused from one collective to the next, and the root's
// result is the one slice every rank of the node returns: read-only,
// valid after later collectives, and the only thing a collective
// allocates on the node.
//
// When Runtime.SetFaults installs a lossy transport plan, epoch sends
// switch to reliable delivery (reliable.go): sequence-numbered sends,
// receiver-side deduplication, acks, and retransmission with backoff —
// and Safra's counter is settled by acks rather than deliveries, so
// termination still certifies exactly-once delivery under drops,
// duplicates and reordering. With no faults installed none of this
// machinery exists on the fast path.
//
// # Who runs a rank
//
// A rank blocks in one place, the pump (Context.pump): Epoch's wait for
// termination and both waits of a collective are the same loop —
// dispatch until the inbox is empty, do the passive share of Safra, park.
// A parked rank is not woken per message. Its inbox has an ownership
// state, one atomic word every transition changes with one CAS:
// running (the rank's own goroutine), parked (the owner sleeps in the
// pump), borrowed. A rank goroutine that sends to a local parked rank
// borrows it: it dispatches the message and whatever else queues on the
// destination's Context from its own goroutine, does the passive rank's
// share of Safra on its behalf, and releases the rank — waking the owner
// only when what it waits for (the epoch's done announcement, its
// children's partials, its collective's result) has come true. User and
// collective sends nest to a small constant depth (maxBorrowDepth); past
// it, and for the two message kinds that by their meaning release their
// receiver (done, collective-down), a send wakes the owner as before.
// The termination token does not nest at all: a rank that owes a hop
// hands it to whoever runs it, who makes it once the rank is released
// and, granted the ring predecessor, runs that rank next — a wave over
// parked ranks is one loop on one goroutine (Context.lend). A transport
// with a fault plan installed never grants a borrow — the plan decides
// that delivery — and neither do messages arriving from another process.
//
// # Counting
//
// A runtime fact is counted once (stats.go). What a rank did is its
// ContextStats, written only by whoever runs the rank; what the
// network carried is comm.Network.Stats. Runtime.Stats folds both
// into a NodeStats that may be read while Run is in flight, and every
// report — the metrics registry (Runtime.Metrics, refolded on every
// export, a live /metrics scrape included), FaultStats, TotalMessages,
// stream frames — is a read of that fold, so none can drift from
// another. Only the epoch-latency histogram is written as the run goes,
// once per epoch: with metrics on and no tracer, dispatching a message
// reads no clock. A handler's duration is the tracer's handler span.
//
// # Concurrency
//
// At most one goroutine runs a rank at a time, and the hand-over happens
// under the inbox lock, so everything the previous runner wrote is
// visible to the next: handler state needs no locking — the same
// single-scheduler-per-rank discipline vt uses. What a handler may not
// assume is which goroutine it is on, nor that Send returns before the
// destination's handler has run. Cross-rank interaction happens
// exclusively through the comm transport's goroutine-safe inboxes; a
// Context and everything reached from it (objects, phase
// instrumentation, collection slices) belong to whoever runs the rank
// and must not be touched from anywhere else — Context.Stats excepted,
// whose counters anyone may load. A collective's result belongs to no
// rank: every rank of the node may read it, none may write it. Register
// handlers and attach observability options before Runtime.Run; the
// registries are read-only while ranks execute.
package amt
