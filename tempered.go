// Package temperedlb is a Go implementation of TemperedLB, the fully
// distributed gossip-based load balancer of Lifflander et al.,
// "Optimizing Distributed Load Balancing for Workloads with Time-Varying
// Imbalance" (IEEE CLUSTER 2021), together with everything the paper's
// evaluation depends on: the original GrapevineLB algorithm as a
// configuration, centralized (GreedyLB) and hierarchical (HierLB)
// baselines, an AMT runtime substrate with active messages, epochs under
// distributed termination detection and migratable objects, an
// EMPIRE-like particle-in-cell application with time-varying imbalance,
// and the analysis/experiment harnesses that regenerate the paper's
// tables and figures.
//
// # Quick start
//
// Build an overdecomposed workload, run the balancer, apply the moves:
//
//	a := temperedlb.NewAssignment(64)
//	for i := 0; i < 1000; i++ {
//		a.Add(load(i), temperedlb.Rank(i%4)) // clustered on 4 ranks
//	}
//	eng, _ := temperedlb.NewEngine(temperedlb.EngineConfig{Config: temperedlb.Tempered()})
//	res, _ := eng.Run(a)
//	res.Apply(a) // a is now balanced; res.FinalImbalance tells how well
//
// The same decision logic runs fully distributed on the AMT runtime; see
// NewRuntime, RegisterLBHandlers and RunDistributedLB, or the pic2d
// example.
package temperedlb

import (
	"temperedlb/internal/core"
	"temperedlb/internal/lb"
	"temperedlb/internal/lb/greedy"
	"temperedlb/internal/lb/hier"
	"temperedlb/internal/lb/tempered"
	"temperedlb/internal/stats"
	"temperedlb/internal/workload"
)

// Core model types: ranks, tasks, and the task→rank distribution.
type (
	// Rank identifies a logical process.
	Rank = core.Rank
	// TaskID identifies a migratable task.
	TaskID = core.TaskID
	// Task pairs a task with its instrumented load.
	Task = core.Task
	// Assignment is the mutable task→rank distribution.
	Assignment = core.Assignment
	// Move relocates one task between ranks.
	Move = core.Move
)

// Algorithm configuration and the synchronous engine.
type (
	// Config holds the knobs of the TemperedLB protocol both drivers read.
	Config = core.Config
	// EngineConfig is a Config plus what only the synchronous engine takes.
	EngineConfig = core.EngineConfig
	// Criterion selects the transfer acceptance test.
	Criterion = core.Criterion
	// CMFKind selects the recipient-selection mass function.
	CMFKind = core.CMFKind
	// Ordering selects the task traversal order of the transfer stage.
	Ordering = core.Ordering
	// Engine runs the refinement loop over an Assignment.
	Engine = core.Engine
	// Result reports an Engine run.
	Result = core.Result
	// IterationStats is the per-iteration accounting of a run.
	IterationStats = core.IterationStats
)

// Enumeration values re-exported for configuration literals.
const (
	CriterionOriginal = core.CriterionOriginal
	CriterionRelaxed  = core.CriterionRelaxed

	CMFOriginal = core.CMFOriginal
	CMFModified = core.CMFModified

	OrderArbitrary        = core.OrderArbitrary
	OrderLoadIntensive    = core.OrderLoadIntensive
	OrderFewestMigrations = core.OrderFewestMigrations
	OrderLightest         = core.OrderLightest
)

// NewAssignment creates an empty assignment over numRanks ranks.
func NewAssignment(numRanks int) *Assignment { return core.NewAssignment(numRanks) }

// Grapevine returns the configuration matching the original GrapevineLB
// algorithm of Menon & Kalé (SC'13) as described in §IV-B of the paper.
func Grapevine() Config { return core.Grapevine() }

// Tempered returns the paper's TemperedLB configuration: relaxed
// criterion, modified CMF recomputed during transfers, Fewest Migrations
// ordering, 10 trials of 8 refinement iterations.
func Tempered() Config { return core.Tempered() }

// NewEngine validates the configuration and returns the synchronous
// engine (Algorithm 3 wrapping Algorithms 1 and 2).
func NewEngine(cfg EngineConfig) (*Engine, error) { return core.NewEngine(cfg) }

// ParseOrdering converts an ordering name ("arbitrary",
// "load-intensive", "fewest-migrations", "lightest") to its value.
func ParseOrdering(s string) (Ordering, error) { return core.ParseOrdering(s) }

// Imbalance computes the paper's metric I = l_max/l_ave − 1 over
// per-rank loads; 0 means perfectly balanced.
func Imbalance(rankLoads []float64) float64 { return stats.Imbalance(rankLoads) }

// Strategy-level API: pluggable balancers over an Assignment.
type (
	// Strategy is a load balancer; implementations must not mutate the
	// assignment they are given.
	Strategy = lb.Strategy
	// Plan is a strategy's proposed relocation set with cost accounting.
	Plan = lb.Plan
)

// NewTemperedLB returns the paper's TemperedLB as a Strategy.
func NewTemperedLB() Strategy { return tempered.NewTempered() }

// NewTemperedLBWith returns a TemperedLB Strategy with a custom
// configuration (e.g. a different ordering or criterion).
func NewTemperedLBWith(cfg EngineConfig) Strategy { return tempered.New(cfg) }

// NewGrapevineLB returns the original GrapevineLB as a Strategy.
func NewGrapevineLB() Strategy { return tempered.NewGrapevine() }

// NewGreedyLB returns the centralized LPT baseline.
func NewGreedyLB() Strategy { return greedy.New() }

// NewHierLB returns the hierarchical tree-based baseline with the given
// fanout (>= 2).
func NewHierLB(fanout int) Strategy { return hier.New(fanout) }

// Workload generation for experiments and tests.
type (
	// WorkloadSpec describes a synthetic task distribution.
	WorkloadSpec = workload.Spec
)

// Workload placement and load-model selectors.
const (
	PlaceClustered = workload.PlaceClustered
	PlaceUniform   = workload.PlaceUniform
	PlaceSkewed    = workload.PlaceSkewed

	LoadUnit        = workload.LoadUnit
	LoadUniform     = workload.LoadUniform
	LoadExponential = workload.LoadExponential
	LoadMixture     = workload.LoadMixture
)

// GenerateWorkload builds the assignment described by the spec.
func GenerateWorkload(s WorkloadSpec) (*Assignment, error) { return workload.Generate(s) }

// VBWorkload returns the paper's §V-B analysis case: 10^4 tasks on 16 of
// 4096 ranks with a light/heavy load mixture, initial imbalance ≈ 280.
func VBWorkload(seed int64) WorkloadSpec { return workload.VBCase(seed) }
