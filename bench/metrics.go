package main

// The metric and workload tables. BENCHMARK.json at the repository root
// is generated from them (spec_test.go keeps the two equal), so a name
// printed by the benchmark is always a name the pipeline knows.

// metricDef describes one end-to-end metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which the metric may
	// worsen before a change counts as a regression. It also bounds the
	// spread between runs on different seeds, so it is sized for inputs
	// that differ, not for one input repeated.
	Bound float64
	// Floor is an absolute difference, in the metric's unit, below which
	// -agree ignores a disagreement (5 ms of set-up is not a finding).
	Floor float64
	// Exact names the workloads on which two runs with the same seed
	// must report the metric bit for bit (to 1e-9): there the value is
	// decided by the protocol, not by scheduling.
	Exact []string
	// Sample extracts the metric's values from one op; nil for a metric of
	// the whole run (peak RSS). A run reports the median over its measured
	// ops, or the mean when Mean is set: the quality metrics' inputs differ
	// from op to op by design, so their mean is the sample over inputs.
	Sample func(s opSample) []float64
	Mean   bool
}

func one(v float64) []float64 { return []float64{v} }

const (
	wlA = "paper_vb_4096_mem"
	wlB = "wire_unix_256"
	wlC = "serve_burst_64_unix"
	wlD = "observed_1024_mem"
)

// The durations (setup_s, op_s_p50, iter_s_p50, cpu_s_per_op, and the
// denominator of msgs_per_s) are seconds at reference speed: each op's
// measured seconds times the op's Scale, which comes from the speed
// kernel timed around that op (speed.go). The other metrics are as
// measured.
//
// The bounds are sized for the pipeline's spread test, which runs ten
// seeds per workload and wants the distance between the quartiles of a
// metric within its bound. On the reference box (a shared 2-core VM)
// scaled timings spread 2-6 % where unscaled ones spread 8-20 %, final
// imbalance 9 % (two paper-scale ops per run) and peak RSS up to 10 %; see
// README.md. A bound narrower than the benchmark's own spread would reject
// the benchmark, not a regression.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.005,
		Sample: func(s opSample) []float64 { return one(s.SetupS * s.Scale) }},
	{Name: "op_s_p50", Unit: "s", Better: "lower", Bound: 0.25,
		Sample: func(s opSample) []float64 { return one(s.WallS * s.Scale) }},
	{Name: "iter_s_p50", Unit: "s", Better: "lower", Bound: 0.25,
		Sample: func(s opSample) []float64 {
			out := make([]float64, len(s.IterS))
			for i, v := range s.IterS {
				out[i] = v * s.Scale
			}
			return out
		}},
	{Name: "msgs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Sample: func(s opSample) []float64 { return one(float64(s.Msgs) / (s.WallS * s.Scale)) }},
	{Name: "cpu_s_per_op", Unit: "s", Better: "lower", Bound: 0.25,
		Sample: func(s opSample) []float64 { return one(s.CPUS * s.Scale) }},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.10,
		Sample: func(s opSample) []float64 { return one(s.AllocMB) }},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "final_imbalance", Unit: "ratio", Better: "lower", Bound: 0.25, Exact: []string{wlB, wlC, wlD}, Mean: true,
		Sample: func(s opSample) []float64 { return one(s.FinalImb) }},
	{Name: "migrations_per_op", Unit: "objects", Better: "lower", Bound: 0.15, Exact: []string{wlB, wlC, wlD}, Mean: true,
		Sample: func(s opSample) []float64 { return one(float64(s.Migrations)) }},
}

// endToEndMetric looks an end-to-end metric up by name.
func endToEndMetric(name string) metricDef {
	for _, m := range endToEnd {
		if m.Name == name {
			return m
		}
	}
	panic("bench: no end-to-end metric " + name)
}

// agreeRule is the rule -agree applies to a metric on a workload.
func (m metricDef) agreeRule(workload string) rule {
	for _, w := range m.Exact {
		if w == workload {
			return rule{exact: true}
		}
	}
	return rule{rel: m.Bound, floor: m.Floor}
}

// layerDef describes one per-layer metric. Layer metrics carry no bound:
// they explain a change in an end-to-end metric, they do not gate it.
type layerDef struct {
	Name   string
	Unit   string
	Better string
}

// perLayer lists every layer metric a traced run reports, grouped by the
// module it measures. The first block of each group comes from the
// traced operations, the second from probes that call the layer's public
// functions in isolation. A metric that does not apply to a workload
// (serve.* outside the service workload, wire.* on the memory transport)
// is reported as 0 there.
var perLayer = []layerDef{
	// internal/lb/tempered: where rank 0's invocation time goes.
	{"lb.run_s", "s", "lower"},
	{"lb.gossip_epoch_s", "s", "lower"},
	{"lb.transfer_epoch_s", "s", "lower"},
	{"lb.commit_epoch_s", "s", "lower"},
	{"lb.iter_collectives_s", "s", "lower"},
	{"lb.iter_self_s", "s", "lower"},
	{"lb.accounted_share", "ratio", "higher"},
	{"lb.invocations", "count", "lower"},
	{"lb.iter_s_tail", "s", "lower"},
	{"lb.iter_s_tail_pct", "%", "higher"},
	{"lb.iter_s_tail_n", "count", "higher"},

	// internal/core: what the gossip and transfer stages decided.
	{"core.gossip_msgs", "count", "lower"},
	{"core.gossip_entries", "count", "lower"},
	{"core.entries_per_msg", "count", "lower"},
	{"core.transfers", "count", "lower"},
	{"core.rejected", "count", "lower"},
	{"core.accept_ratio", "ratio", "higher"},
	{"core.knowledge_avg", "count", "higher"},
	{"core.final_imbalance", "ratio", "lower"},
	{"core.inform_receive_ns", "ns", "lower"},
	{"core.transfer_stage_us", "us", "lower"},
	{"core.order_10k_us", "us", "lower"},
	{"core.engine_vd_s", "s", "lower"},

	// internal/amt: scheduling, epochs, collectives, migration.
	{"amt.handler_calls", "count", "lower"},
	{"amt.handler_busy_s", "s", "lower"},
	{"amt.epochs", "count", "lower"},
	{"amt.epoch_s_p50", "s", "lower"},
	{"amt.collectives", "count", "lower"},
	{"amt.collective_s_p50", "s", "lower"},
	{"amt.collective_msgs", "count", "lower"},
	{"amt.migrations", "count", "lower"},
	{"amt.migration_bytes", "bytes", "lower"},
	{"amt.retries", "count", "lower"},
	{"amt.dup_drops", "count", "lower"},
	{"amt.allreduce_vec_us.64", "us", "lower"},
	{"amt.allreduce_vec_us.1024", "us", "lower"},
	{"amt.allreduce_vec_us.4096", "us", "lower"},
	{"amt.allgather_us.1024", "us", "lower"},
	{"amt.allgather_us.4096", "us", "lower"},
	{"amt.barrier_us.4096", "us", "lower"},
	{"amt.runtime_start_ms.4096", "ms", "lower"},
	{"amt.migrate_us", "us", "lower"},
	{"amt.reliable_overhead_ratio", "ratio", "lower"},

	// internal/termination: Safra waves.
	{"termination.token_rounds", "count", "lower"},
	{"termination.waves_per_epoch", "count", "lower"},
	{"termination.empty_epoch_us.1024", "us", "lower"},
	{"termination.empty_epoch_us.4096", "us", "lower"},
	{"termination.detector_ns", "ns", "lower"},

	// internal/comm: the transport's message accounting.
	{"comm.msgs_total", "count", "lower"},
	{"comm.msgs_user", "count", "lower"},
	{"comm.msgs_object", "count", "lower"},
	{"comm.msgs_token", "count", "lower"},
	{"comm.msgs_coll", "count", "lower"},
	{"comm.msgs_ack", "count", "lower"},
	{"comm.bytes_total", "bytes", "lower"},
	{"comm.overhead_msg_ratio", "ratio", "lower"},
	{"comm.send_recv_ns", "ns", "lower"},
	{"comm.fanin_ns", "ns", "lower"},

	// internal/comm/wire: frames on the socket.
	{"wire.frames_out", "count", "lower"},
	{"wire.bytes_out", "bytes", "lower"},
	{"wire.bytes_per_frame", "bytes", "lower"},
	{"wire.queue_highwater", "count", "lower"},
	{"wire.redials", "count", "lower"},
	{"wire.encode_ns.1", "ns", "lower"},
	{"wire.decode_ns.1", "ns", "lower"},
	{"wire.encode_mb_s.1k", "MB/s", "higher"},
	{"wire.decode_mb_s.1k", "MB/s", "higher"},
	{"wire.pingpong_us.unix", "us", "lower"},
	{"wire.pingpong_us.tcp", "us", "lower"},
	{"wire.stream_msgs_s.unix", "1/s", "higher"},
	{"wire.cluster_connect_ms.unix", "ms", "lower"},

	// internal/serve: the online service loop.
	{"serve.fires", "count", "lower"},
	{"serve.skips", "count", "higher"},
	{"serve.total_cost", "load", "lower"},
	{"serve.phase_s_p50", "s", "lower"},
	{"serve.phase_s_tail", "s", "lower"},
	{"serve.phase_s_tail_pct", "%", "higher"},
	{"serve.phase_s_tail_n", "count", "higher"},
	{"serve.skip_phase_s_p50", "s", "lower"},
	{"serve.lb_s_per_fire", "s", "lower"},
	{"serve.forecast_mae", "load", "lower"},
	{"serve.trigger_eval_us", "us", "lower"},
	{"serve.scenario_gen_us", "us", "lower"},

	// internal/obs: the cost of looking.
	{"obs.events_per_op", "count", "lower"},
	{"obs.frames_per_op", "count", "lower"},
	{"obs.trace_overhead_ratio", "ratio", "lower"},
	{"obs.observe_overhead_ratio", "ratio", "lower"},
	{"obs.emit_ns", "ns", "lower"},
	{"obs.stream_publish_us.1024", "us", "lower"},
}
