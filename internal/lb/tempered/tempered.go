package tempered

import (
	"temperedlb/internal/core"
	"temperedlb/internal/lb"
)

// Strategy adapts the core engine to the lb.Strategy interface.
type Strategy struct {
	cfg  core.EngineConfig
	name string
}

// New returns a TemperedLB strategy with the given configuration.
func New(cfg core.EngineConfig) *Strategy {
	return &Strategy{cfg: cfg, name: "TemperedLB"}
}

// NewGrapevine returns the configuration matching the original
// GrapevineLB algorithm (the paper's AMT w/GrapevineLB bar).
func NewGrapevine() *Strategy {
	return &Strategy{cfg: core.EngineConfig{Config: core.Grapevine()}, name: "GrapevineLB"}
}

// NewTempered returns the paper's TemperedLB defaults (relaxed
// criterion, modified CMF, recomputed, Fewest Migrations, 10×8
// refinement).
func NewTempered() *Strategy {
	return New(core.EngineConfig{Config: core.Tempered()})
}

// Config returns the underlying configuration.
func (s *Strategy) Config() core.EngineConfig { return s.cfg }

// Reseed changes the seed in place; the experiment harness calls it
// before every LB invocation so successive rebalances of a long run
// draw fresh but reproducible randomness (implements lb.Reseeder).
func (s *Strategy) Reseed(seed int64) { s.cfg.Seed = seed }

// Name implements lb.Strategy.
func (s *Strategy) Name() string { return s.name }

// Rebalance implements lb.Strategy.
func (s *Strategy) Rebalance(a *core.Assignment) (*lb.Plan, error) {
	eng, err := core.NewEngine(s.cfg)
	if err != nil {
		return nil, err
	}
	res, err := eng.Run(a)
	if err != nil {
		return nil, err
	}
	plan := &lb.Plan{
		Moves:            res.Moves,
		FinalImbalance:   res.FinalImbalance,
		InitialImbalance: res.InitialImbalance,
		MovedLoad:        res.MovedLoad(a),
	}
	for _, it := range res.History {
		plan.Messages += it.GossipMessages
	}
	// One transfer notification per move.
	plan.Messages += len(res.Moves)
	// Each refinement iteration is a gossip epoch plus a transfer epoch
	// under termination detection, plus the commit epoch and the
	// statistics all-reduce.
	plan.Epochs = 2*s.cfg.Trials*s.cfg.Iterations + 2
	return plan, nil
}
