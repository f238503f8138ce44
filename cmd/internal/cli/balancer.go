package cli

import (
	"flag"
	"fmt"

	"temperedlb/internal/amt"
	"temperedlb/internal/core"
	"temperedlb/internal/lb/tempered"
)

// Balancer is the flag group of the gossip balancer's refinement knobs. A
// zero value leaves the strategy's own default in place.
type Balancer struct {
	Rounds, Iters int
}

// Register declares -rounds -iters on fs and returns the names it declared.
func (b *Balancer) Register(fs *flag.FlagSet, only ...string) []string {
	return register(fs, only, func(g *flag.FlagSet) {
		g.IntVar(&b.Rounds, "rounds", b.Rounds, fmt.Sprintf("gossip rounds per iteration, 1 to %d (0 = strategy default)", core.MaxRounds))
		g.IntVar(&b.Iters, "iters", b.Iters, "refinement iterations per trial (0 = strategy default)")
	})
}

// Validate rejects a knob no configuration can take, naming the flag: a
// -rounds past the gossip state's forwarded mask would otherwise surface
// as core.ErrTooManyRounds from deep inside the run.
func (b *Balancer) Validate() error {
	if b.Rounds < 0 || b.Rounds > core.MaxRounds {
		return fmt.Errorf("-rounds %d: want in [0,%d] (0 = strategy default)", b.Rounds, core.MaxRounds)
	}
	if b.Iters < 0 {
		return fmt.Errorf("-iters %d: want >= 0 (0 = strategy default)", b.Iters)
	}
	return nil
}

// Apply sets the knobs the flags give on cfg.
func (b *Balancer) Apply(cfg *core.Config) {
	if b.Rounds > 0 {
		cfg.Rounds = b.Rounds
	}
	if b.Iters > 0 {
		cfg.Iterations = b.Iters
	}
}

// RunDemo is the one-shot run of `lbplay -distributed`, whatever hosts
// the job — `make wire-smoke` diffs its results across shapes: every local
// rank creates its tasks of a as objects (state: the load itself), the
// job barriers, and the distributed balancer runs at the demo's 4 trials
// × 4 iterations, with the knobs the flags give. It returns every local
// rank's result, indexed by rank.
func (b *Balancer) RunDemo(job *amt.Job, a *core.Assignment, seed int64) ([]tempered.DistResult, error) {
	cfg := core.Tempered()
	cfg.Trials, cfg.Iterations = 4, 4
	cfg.Seed = seed
	b.Apply(&cfg)
	results := make([]tempered.DistResult, a.NumRanks())
	err := job.Run(func(rt *amt.Runtime) func(*amt.Context) error {
		h := tempered.RegisterHandlers(rt, 1)
		return func(rc *amt.Context) (err error) {
			loads := map[amt.ObjectID]float64{}
			for _, task := range a.TasksOf(rc.Rank()) {
				id := rc.CreateObject(task.Load)
				loads[id] = task.Load
			}
			rc.Barrier()
			results[rc.Rank()], err = tempered.RunDistributed(rc, h, cfg, loads)
			return err
		}
	})
	return results, err
}
