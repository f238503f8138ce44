// Package sim is the virtual-time execution model and experiment harness
// that regenerates the paper's EMPIRE evaluation (Figs. 2, 3, 4a–d). A
// phase's elapsed time is the maximum per-rank task load — ranks
// synchronize at phase end (§III-C) — plus the balanced non-particle
// time; AMT configurations pay the tasking overhead of Fig. 2 on
// particle work and are charged an LB cost model (algorithm messages
// plus migration volume) whenever the balancer runs.
//
// # Concurrency
//
// One goroutine owns the Experiment and steps the shared physics.
// Within each step the trackers are independent consumers of the same
// read-only color loads, so they advance concurrently on the exper
// worker pool, one goroutine per CPU (GOMAXPROCS). Each Tracker — its assignment, strategy and series — is
// touched by exactly one goroutine per step, and every randomized
// strategy is reseeded deterministically per invocation, so the results
// (and the WriteSeriesCSV dumps) are byte-identical at any worker
// count.
package sim
