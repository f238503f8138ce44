package lbaf

import (
	"fmt"
	"io"

	"temperedlb/internal/core"
	"temperedlb/internal/exper"
	"temperedlb/internal/workload"
)

// SweepConfig is one labeled engine configuration of a parameter sweep.
type SweepConfig struct {
	Label string
	Cfg   core.EngineConfig
}

// SweepPoint is one cell of a parameter sweep: the configuration values
// swept plus the outcome.
type SweepPoint struct {
	Label          string
	FinalImbalance float64
	GossipMessages int
	GossipEntries  int
	Transfers      int
}

// Sweep holds the results of running the engine across a set of
// configurations on the same workload.
type Sweep struct {
	Title  string
	Points []SweepPoint
}

// RunSweep evaluates each labeled configuration on the same generated
// workload, so every point starts from the identical initial
// distribution, fanning the configurations across GOMAXPROCS goroutines.
// Each point runs its own engine over the shared read-only assignment
// with its own seeded random streams, and results are collected in
// configuration order, so the sweep is bit-identical to a serial run.
func RunSweep(title string, spec workload.Spec, configs []SweepConfig) (Sweep, error) {
	return runSweep(title, spec, configs, 0)
}

// runSweep is RunSweep on up to workers goroutines (0 means GOMAXPROCS,
// 1 runs serially): the serial mode is the reference the determinism
// tests compare against.
func runSweep(title string, spec workload.Spec, configs []SweepConfig, workers int) (Sweep, error) {
	a, err := workload.Generate(spec)
	if err != nil {
		return Sweep{}, err
	}
	pts, err := exper.MapErr(len(configs), workers, func(i int) (SweepPoint, error) {
		c := configs[i]
		eng, err := core.NewEngine(c.Cfg)
		if err != nil {
			return SweepPoint{}, fmt.Errorf("lbaf: sweep %q: %w", c.Label, err)
		}
		res, err := eng.Run(a)
		if err != nil {
			return SweepPoint{}, err
		}
		pt := SweepPoint{Label: c.Label, FinalImbalance: res.FinalImbalance}
		for _, it := range res.History {
			pt.GossipMessages += it.GossipMessages
			pt.GossipEntries += it.GossipEntries
			pt.Transfers += it.Transfers
		}
		return pt, nil
	})
	if err != nil {
		return Sweep{}, err
	}
	return Sweep{Title: title, Points: pts}, nil
}

// GossipSweepConfigs builds the fanout/rounds grid of the footnote-2
// study on top of a base configuration.
func GossipSweepConfigs(base core.EngineConfig, fanouts, rounds []int) []SweepConfig {
	var out []SweepConfig
	for _, f := range fanouts {
		for _, k := range rounds {
			cfg := base
			cfg.Fanout, cfg.Rounds = f, k
			out = append(out, SweepConfig{Label: fmt.Sprintf("f=%d k=%d", f, k), Cfg: cfg})
		}
	}
	return out
}

// RefinementSweepConfigs builds the trials/iterations grid of the
// Algorithm-3 budget study.
func RefinementSweepConfigs(base core.EngineConfig, trials, iters []int) []SweepConfig {
	var out []SweepConfig
	for _, tr := range trials {
		for _, it := range iters {
			cfg := base
			cfg.Trials, cfg.Iterations = tr, it
			out = append(out, SweepConfig{Label: fmt.Sprintf("trials=%d iters=%d", tr, it), Cfg: cfg})
		}
	}
	return out
}

// Render writes the sweep as a table.
func (s Sweep) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n", s.Title)
	fmt.Fprintf(w, "%-20s %12s %12s %14s %12s\n", "point", "final I", "messages", "entries", "transfers")
	for _, p := range s.Points {
		fmt.Fprintf(w, "%-20s %12.4g %12d %14d %12d\n",
			p.Label, p.FinalImbalance, p.GossipMessages, p.GossipEntries, p.Transfers)
	}
}
