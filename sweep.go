package temperedlb

import (
	"temperedlb/internal/lbaf"
)

// Experiment-harness surface: the LBAF sweep and comparison runners that
// regenerate the paper's §V-B/§V-D tables and knob sweeps. They fan the
// independent configuration runs across one goroutine per CPU
// (GOMAXPROCS); because every run owns its seeded random streams, the
// results are byte-identical at any worker count.
type (
	// SweepConfig is one labelled configuration of a sweep grid.
	SweepConfig = lbaf.SweepConfig
	// Sweep is the result of running a configuration grid over one
	// workload: a summary row per configuration.
	Sweep = lbaf.Sweep
	// SweepPoint is one row of a Sweep.
	SweepPoint = lbaf.SweepPoint
	// IterationTable is the paper-style per-iteration accounting table
	// (§V-B layout) of one engine run.
	IterationTable = lbaf.Table
	// Comparison pairs the original-criterion and relaxed-criterion
	// tables over the identical initial distribution (§V-D).
	Comparison = lbaf.Comparison
)

// RunSweep runs every configuration over the workload described by spec
// and summarizes each run as one sweep row.
func RunSweep(title string, spec WorkloadSpec, configs []SweepConfig) (Sweep, error) {
	return lbaf.RunSweep(title, spec, configs)
}

// GossipSweepConfigs builds the fanout × rounds grid for the information
// propagation stage (Algorithm 1's knobs).
func GossipSweepConfigs(base EngineConfig, fanouts, rounds []int) []SweepConfig {
	return lbaf.GossipSweepConfigs(base, fanouts, rounds)
}

// RunComparison generates the workload described by spec and runs the
// §V-D comparison: the original criterion versus the relaxed criterion
// with the modified CMF, on the identical initial distribution.
func RunComparison(spec WorkloadSpec, base EngineConfig) (Comparison, error) {
	return lbaf.RunComparison(spec, base)
}
