package serve

import (
	"fmt"

	"temperedlb/internal/amt"
	"temperedlb/internal/lb/tempered"
)

// Simulate runs the service for cfg inside this process: it hosts the whole
// job on the in-memory network, runs Run on every rank and returns rank 0's
// Result with LocalMigrations summed over the ranks. It is the service
// itself, not a model of it, so by the cross-transport identity its Result
// is what a socket cluster given cfg returns. A configuration Run would
// refuse is refused here once, before any job is stood up.
func Simulate(cfg Config) (Result, error) {
	if _, _, err := cfg.prepare(); err != nil {
		return Result{}, err
	}
	job, err := amt.Launch("memory", cfg.Scenario.Ranks, 1, 0)
	if err != nil {
		return Result{}, err
	}
	defer job.Close()
	results := make([]Result, cfg.Scenario.Ranks)
	err = job.Run(func(rt *amt.Runtime) func(*amt.Context) error {
		h := tempered.RegisterHandlers(rt, 1)
		return func(rc *amt.Context) (err error) {
			results[rc.Rank()], err = Run(rc, h, cfg)
			return err
		}
	})
	if err != nil {
		return Result{}, err
	}
	res := results[0]
	for _, r := range results[1:] {
		res.LocalMigrations += r.LocalMigrations
	}
	return res, nil
}

// Candidate is one grid point of a tuning sweep: a trigger and what the
// service returned when run with it.
type Candidate struct {
	Spec   TriggerSpec
	Result Result
}

// Tune grid-searches trigger parameters for cfg's scenario, model and cost
// — cfg.Trigger is ignored — by running the service once per grid point
// (Simulate), and returns the cheapest candidate (ties broken by fewer
// fires, then grid order — fully deterministic). families selects which
// trigger families to sweep; nil sweeps all three.
func Tune(cfg Config, families []string) (Candidate, []Candidate, error) {
	if families == nil {
		families = []string{"every", "threshold", "forecast"}
	}
	var grid []TriggerSpec
	for _, fam := range families {
		switch fam {
		case "every":
			for _, k := range []int{1, 2, 3, 4, 6, 8, 12, 16} {
				grid = append(grid, TriggerSpec{Family: "every", K: k})
			}
		case "threshold":
			for _, h := range []float64{0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.75, 1} {
				grid = append(grid, TriggerSpec{Family: "threshold", Threshold: h})
			}
		case "forecast":
			for _, head := range []float64{0.25, 0.5, 0.75, 1, 1.5, 2, 3, 4} {
				grid = append(grid, TriggerSpec{Family: "forecast", Headroom: head})
			}
		default:
			return Candidate{}, nil, fmt.Errorf("serve: unknown trigger family %q", fam)
		}
	}
	var all []Candidate
	best := -1
	for _, ts := range grid {
		cfg.Trigger = ts
		r, err := Simulate(cfg)
		if err != nil {
			return Candidate{}, nil, err
		}
		all = append(all, Candidate{Spec: ts, Result: r})
		i := len(all) - 1
		if best < 0 ||
			r.TotalCost < all[best].Result.TotalCost ||
			(r.TotalCost == all[best].Result.TotalCost && r.Fires < all[best].Result.Fires) {
			best = i
		}
	}
	return all[best], all, nil
}
