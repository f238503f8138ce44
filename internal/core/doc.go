// Package core implements the paper's primary contribution: the
// TemperedLB family of fully distributed, gossip-based load balancing
// algorithms, of which the original GrapevineLB (Menon & Kalé, SC'13) is
// one configuration.
//
// The package provides:
//
//   - Task/Assignment bookkeeping for an overdecomposed workload
//     (many more migratable tasks than ranks).
//   - The inform (gossip) stage of Algorithm 1 as a reusable per-rank
//     state machine (InformState) so the same logic drives both the
//     synchronous LBAF-style simulator and the asynchronous AMT runtime.
//   - The transfer stage of Algorithm 2 (RunTransferScratch) with the original
//     and relaxed criteria, the original and modified CMFs, and optional
//     CMF recomputation.
//   - The four task traversal orderings of §V-E (OrderTasks).
//   - The iterative refinement with trials of Algorithm 3 (Engine), with
//     per-iteration accounting of transfers, rejections and imbalance.
//
// All randomness is drawn from seeded generators derived from
// Config.Seed, so every run is reproducible bit-for-bit.
//
// # Concurrency
//
// Nothing in this package locks. An Engine is single-owner: it keeps
// per-run scratch state (gossip states, RNGs, transfer buffers) between
// Run calls to avoid reallocation, so one Engine must never be shared
// between goroutines. Engine.Run only reads the Assignment it is given,
// which makes the parallel-sweep pattern safe: many engines, each owned
// by one worker goroutine, over one shared read-only input assignment.
// InformState, TransferScratch and Knowledge follow the same
// single-owner rule — in the distributed balancer each rank owns its
// gossip state, and the runtime runs a rank on one goroutine at a time; a
// TransferScratch is lent to one running transfer stage at a time from a
// node-wide pool. The one exception is the LoadTable the gossip states of
// a node share: its slots are atomic, and every store to a slot within a
// gossip stage writes the same value.
package core
