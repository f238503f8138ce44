// Package obs is the protocol-level observability layer of the
// distributed stack: typed trace events emitted by the transport, the
// AMT runtime, termination detection and the distributed balancer, plus
// a lock-cheap metrics registry, with exporters to Chrome trace_event
// JSON (chrome://tracing, Perfetto) and Prometheus text exposition.
//
// The design goal is a hot path that pays exactly one nil-check when
// tracing is disabled: instrumented code holds a Tracer interface value
// that is nil by default and only constructs and emits events inside
// `if tr != nil` guards. Metrics follow the same discipline — instrument
// pointers are resolved once at setup and the disabled path never
// touches them. A counter that reports a total kept elsewhere is not
// incremented alongside it: its owner stores it when the registry is
// exported (Metrics.OnScrape), so the two cannot disagree.
//
// # Concurrency
//
// Everything here is goroutine-safe by design, because one Recorder and
// one Metrics registry are shared by every rank goroutine of a
// distributed run — and, since the parallel experiment harness, by
// concurrent engine runs. Recorder.Emit appends to mutex-sharded
// buffers keyed by rank; Events merges them into one timestamp-sorted
// view. Counters and gauges are atomics. A histogram has fixed buckets
// and one writer at a time (a rank observing its own, or the owner storing
// a fold) and any number of readers. It is safe to attach a single Recorder/Metrics pair as the
// tracer of every configuration in a parallel sweep.
package obs
