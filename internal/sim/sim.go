package sim

import (
	"fmt"

	"temperedlb/internal/core"
	"temperedlb/internal/empire"
	"temperedlb/internal/exper"
	"temperedlb/internal/lb"
	"temperedlb/internal/lb/hier"
	"temperedlb/internal/mesh"
	"temperedlb/internal/obs"
	"temperedlb/internal/stats"
)

// CostModel prices a load balancing invocation in virtual seconds.
type CostModel struct {
	// PerMessage is the cost of one algorithm message on the critical
	// path; total messages are assumed spread across the ranks.
	PerMessage float64
	// PerEpoch is the latency of one sequential communication phase
	// (epoch under termination detection, gather/scatter round, tree
	// level); it is what makes TemperedLB's 10×8 refinement the most
	// expensive balancer in Fig. 3 despite its modest migration volume.
	PerEpoch float64
	// PerMovedLoad charges migration volume: moving a task costs this
	// factor times its instrumented load (task state scales with the
	// particles it carries), spread across ranks.
	PerMovedLoad float64
	// Fixed is the per-invocation constant (allreduce, RDMA buffer
	// resizing).
	Fixed float64
}

// DefaultCostModel matches the paper's t_lb magnitudes: a few hundred
// milliseconds per invocation, with the refinement epochs dominating
// TemperedLB and migration volume dominating GreedyLB.
func DefaultCostModel() CostModel {
	return CostModel{PerMessage: 2.0e-5, PerEpoch: 5.0e-3, PerMovedLoad: 0.5, Fixed: 0.25}
}

// Invocation returns the virtual time charged for one LB run: the
// per-phase latencies, the algorithm's message traffic and the
// migration volume (both spread across the ranks), plus the fixed
// per-invocation overhead.
func (c CostModel) Invocation(plan *lb.Plan, numRanks int) float64 {
	p := float64(numRanks)
	return c.Fixed + c.PerEpoch*float64(plan.Epochs) +
		c.PerMessage*float64(plan.Messages)/p + c.PerMovedLoad*plan.MovedLoad/p
}

// Breakdown is the Fig. 3 row: non-particle, particle, LB, and total
// virtual time.
type Breakdown struct {
	TN, TP, TLB, TTotal float64
}

// Series holds the per-step observables of Fig. 4.
type Series struct {
	// StepTime is the full step time (Fig. 4a).
	StepTime []float64
	// MaxLoad, MinLoad and LowerBound are the per-rank task load extrema
	// and the achievable lower bound (Fig. 4b).
	MaxLoad, MinLoad, LowerBound []float64
	// Imbalance is I on the per-rank particle task loads (Fig. 4c).
	Imbalance []float64
}

// Tracker accounts one configuration (one bar of Fig. 2) as the shared
// physics advances.
type Tracker struct {
	// Name labels the configuration.
	Name string
	// Strategy is the balancer; nil disables LB.
	Strategy lb.Strategy
	// AMT enables overdecomposition: colors are migratable and particle
	// work pays the tasking overhead. SPMD keeps the static mapping.
	AMT bool
	// HierSchedule applies the paper's special HierLB schedule:
	// load-intensive tasks preferred at step 2, lightweight at step 4.
	HierSchedule bool
	// Stream, when non-nil, receives one frame per simulation step with
	// the tracker's per-rank loads and cumulative LB accounting; frames
	// carry the tracker's Name as their source. Trackers advance
	// concurrently within a step, so sharing one stream interleaves
	// sources (Publish is thread-safe); per-step frame order across
	// trackers is scheduling-dependent, per-tracker order is not.
	Stream *obs.Stream

	Breakdown Breakdown
	Series    Series

	// LBStats aggregates the balancer's work across all invocations.
	LBStats LBStats

	assign   *core.Assignment
	overhead float64
	cost     CostModel
	lbSeq    int64
}

// LBStats totals the balancing activity of one configuration.
type LBStats struct {
	Invocations int
	Messages    int
	MovedTasks  int
	MovedLoad   float64
}

// Experiment advances one shared EMPIRE-like physics run while every
// tracker consumes the same per-step color loads — the balancers change
// placement, never the physics, so all configurations see identical
// workloads (as on the real machine).
type Experiment struct {
	App      *empire.App
	Trackers []*Tracker
	cost     CostModel
	// workers caps the goroutines advancing trackers within each step:
	// 0 means GOMAXPROCS; the determinism tests set 1 for the serial
	// reference. Any value produces identical results — each tracker owns
	// its assignment and strategy, and the shared per-step loads are
	// read-only.
	workers int
}

// NewExperiment builds the application and wires the trackers.
func NewExperiment(cfg empire.Config, cost CostModel, trackers []*Tracker) (*Experiment, error) {
	app, err := empire.NewApp(cfg)
	if err != nil {
		return nil, err
	}
	numRanks := cfg.NumRanks()
	numColors := app.Coloring.NumColors()
	for _, t := range trackers {
		t.assign = core.NewAssignment(numRanks)
		for c := 0; c < numColors; c++ {
			t.assign.Add(0, app.Coloring.HomeRank(mesh.ColorID(c)))
		}
		t.overhead = 1
		if t.AMT {
			t.overhead = 1 + cfg.AMTOverhead
		}
		t.cost = cost
	}
	return &Experiment{App: app, Trackers: trackers, cost: cost}, nil
}

// Run advances the configured number of steps. The trackers are
// independent consumers of the shared per-step loads, so within each
// step they advance concurrently on the exper worker pool, one goroutine
// per CPU (GOMAXPROCS).
func (e *Experiment) Run() error {
	cfg := e.App.Cfg
	errs := make([]error, len(e.Trackers))
	for s := 1; s <= cfg.Steps; s++ {
		counts := e.App.Step()
		loads := e.App.ColorLoads(counts)
		tn := e.App.NonParticleTimePerStep()
		if s%cfg.LBPeriod == 0 {
			tn += cfg.DiagCost // physics diagnostics share the interval
		}
		exper.Run(len(e.Trackers), e.workers, func(i int) {
			t := e.Trackers[i]
			if err := t.step(s, cfg, loads, tn); err != nil && errs[i] == nil {
				errs[i] = fmt.Errorf("sim: tracker %s: %w", t.Name, err)
			}
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// step charges one timestep to the tracker.
func (t *Tracker) step(stepNum int, cfg empire.Config, colorLoads []float64, tn float64) error {
	for c, l := range colorLoads {
		t.assign.SetLoad(core.TaskID(c), l)
	}
	rankLoads := t.assign.RankLoads()
	maxL, minL := 0.0, rankLoads[0]
	for _, l := range rankLoads {
		if l > maxL {
			maxL = l
		}
		if l < minL {
			minL = l
		}
	}
	tp := maxL * t.overhead

	// The paper runs HierLB twice early (steps 2 and 4, with different
	// task preferences) before settling on the shared 100-step interval.
	lbDue := cfg.LBDue(stepNum) || (t.HierSchedule && stepNum == 4)
	tlb := 0.0
	if t.AMT && t.Strategy != nil && lbDue {
		plan, err := t.rebalance(stepNum)
		if err != nil {
			return err
		}
		plan.Apply(t.assign)
		tlb = t.cost.Invocation(plan, t.assign.NumRanks())
		t.LBStats.Invocations++
		t.LBStats.Messages += plan.Messages
		t.LBStats.MovedTasks += plan.MovedTasks()
		t.LBStats.MovedLoad += plan.MovedLoad
	}

	t.Breakdown.TN += tn
	t.Breakdown.TP += tp
	t.Breakdown.TLB += tlb
	t.Breakdown.TTotal += tn + tp + tlb

	t.Series.StepTime = append(t.Series.StepTime, tn+tp+tlb)
	t.Series.MaxLoad = append(t.Series.MaxLoad, maxL*t.overhead)
	t.Series.MinLoad = append(t.Series.MinLoad, minL*t.overhead)
	ave := t.assign.AveLoad()
	t.Series.LowerBound = append(t.Series.LowerBound,
		stats.LowerBoundMax(ave, t.assign.MaxTaskLoad())*t.overhead)
	t.Series.Imbalance = append(t.Series.Imbalance, t.assign.Imbalance())

	if t.Stream != nil {
		f := obs.Snapshot{
			Source: t.Name, Phase: "step", Step: stepNum,
			Loads:        rankLoads, // fresh copy from RankLoads above
			TransferMsgs: int64(t.LBStats.Messages),
			Migrations:   int64(t.LBStats.MovedTasks),
			IterMs:       (tn + tp + tlb) * 1e3,
		}
		f.FillLoadStats()
		t.Stream.Publish(f)
	}
	return nil
}

// rebalance runs the strategy, applying the HierLB special schedule and
// refreshing randomized strategies' seeds.
func (t *Tracker) rebalance(stepNum int) (*lb.Plan, error) {
	t.lbSeq++
	if r, ok := t.Strategy.(lb.Reseeder); ok {
		r.Reseed(t.lbSeq * 7919)
	}
	if t.HierSchedule {
		if h, ok := t.Strategy.(*hier.Strategy); ok {
			switch stepNum {
			case 2:
				h.Preference = hier.PreferHeavy
			case 4:
				h.Preference = hier.PreferLight
			default:
				h.Preference = hier.PreferBestFit
			}
		}
	}
	return t.Strategy.Rebalance(t.assign)
}

// Assignment exposes the tracker's current color→rank mapping for
// inspection in tests.
func (t *Tracker) Assignment() *core.Assignment { return t.assign }
