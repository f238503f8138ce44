// Package lbaf is the Load Balancing Analysis Framework: a deterministic
// harness for exploring, testing and comparing load balancing strategies
// outside the runtime, mirroring the role of the Python LBAF tool the
// paper uses in §V. It drives the core engine over synthetic workloads
// and renders the per-iteration tables of §V-B and §V-D, the
// original-vs-relaxed comparison, and configuration sweeps over the
// algorithm's gossip and refinement knobs.
//
// # Concurrency
//
// The sweep and comparison runners (RunSweep, RunComparison,
// RunComparisonOn) fan independent configuration runs across the exper
// worker pool, one goroutine per CPU (GOMAXPROCS): one
// fresh core.Engine per configuration, all reading one shared
// assignment that Engine.Run never mutates. Because every run draws
// from its own seeded streams, the rendered output is byte-identical at
// any worker count — the serial-vs-parallel tests pin this. Table,
// Sweep and Comparison values are plain data once returned.
package lbaf
