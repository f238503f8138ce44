// Package serve is the online balancer service: the layer that decides
// WHEN to rebalance, where the tempered protocol underneath decides
// HOW.
//
// The batch harness invokes the balancer every iteration. For a
// long-running workload with time-varying imbalance that is the wrong
// default — rebalancing has a cost, and a workload that is balanced for
// long stretches should not pay it every phase. Run drives a continuous
// stream of task arrivals, departures and load drift (deterministic
// seeded generators: ramp, diurnal, burst, churn — see Scenario), folds
// each phase's observations into an extended amt.LoadModel (Holt's
// level+trend smoothing, following the imbalance-anticipation approach
// of Boulmier et al., arXiv:1909.07168), and asks a pluggable Trigger
// whether the next phase justifies an invocation. The Forecast trigger
// implements the LB-invocation criterion of Boulmier et al.
// (arXiv:2104.01688): fire when the cumulative realized imbalance cost
// plus the forecast next-phase cost reaches the amortized cost of a
// rebalancing.
//
// # Determinism
//
// The service holds the repository-wide bit-determinism contract — the
// same trigger-decision log and final assignment on the in-memory,
// Unix-socket and TCP transports at any node count — by construction:
//
//  1. The scenario is a pure function of its Spec. Every process builds
//     an identical copy, which all its ranks share; no event needs to
//     cross the wire.
//  2. An object's load is a function of (item, phase), and the item
//     index rides in the object state through migrations, so whichever
//     rank hosts an object computes the same work for it.
//  3. The trigger consumes only Summary values assembled from
//     AllReduceMixed collectives (fixed tree combine order) and shared
//     configuration. Trigger state is per-rank but evolves only through
//     Decide, so by induction over phases every rank's instance sees
//     the same inputs and reaches the same fire/skip decision — the
//     collective call sequence can never diverge.
//  4. Each invocation hands the balancer the model's predictions summed
//     and iterated in sorted object-id order, and seeds it from the
//     phase index, keeping the protocol's own determinism guarantees
//     intact.
//
// Tune runs the service itself — Simulate: the whole job on the in-memory
// network, inside the calling process — once per point of a grid of
// trigger parameters and picks the cheapest configuration. By the contract
// above a candidate's Result is the one any transport returns for it.
package serve
