// Package tempered exposes the paper's TemperedLB (and its GrapevineLB
// configuration) in two forms:
//
//   - Strategy: the offline form implementing lb.Strategy over the core
//     engine, used by the analysis framework and the virtual-time
//     experiment harness.
//   - RunDistributed: the fully distributed form running on the AMT
//     runtime — gossip as real active messages under epoch termination
//     detection, deferred transfers, and actual object migrations.
//
// # Working sets
//
// RunDistributed keeps a rank's distributions — the invocation's input,
// the trial's virtual set, the best set so far — as workSet values: an
// ascending-by-object-id run of tasks, owned by the rank's balancer
// state and reused across trials and invocations. The caller's loads map
// is sorted once per invocation; after that the order is kept, not
// re-established: ceded tasks leave tombstones, received tasks join an
// unsorted tail, and the next read folds both back into the run. Every
// load total is therefore the same left-to-right sum on every run
// (bit-identical for non-dyadic loads too), the transfer stage's task
// list is the set's own slice, and the commit epoch fetches in the
// order the best set already has. The rows of DistResult.History live
// in the same state: a caller keeps them past the rank's next
// invocation only by copying them.
//
// # Concurrency
//
// A Strategy owns a core.Engine and its reusable scratch state, so it
// is single-owner: one tracker/goroutine per instance. Handlers must be
// registered once before Runtime.Run (the registry is read-only after
// that); RunDistributed is a collective — every rank's goroutine calls
// it together, and each rank's protocol state is confined to whoever
// runs that rank: its own goroutine, or — while it is parked in an epoch
// or a collective — the goroutine of a rank that sent to it. The runtime
// lets at most one goroutine run a rank at a time and orders the
// hand-over (amt: "Who runs a rank"), so the state needs no lock, and all
// cross-rank traffic goes through the runtime's active messages.
package tempered
