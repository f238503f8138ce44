package sim

import (
	"fmt"
	"io"

	"temperedlb/internal/core"
	"temperedlb/internal/empire"
	"temperedlb/internal/lb/greedy"
	"temperedlb/internal/lb/hier"
	"temperedlb/internal/lb/tempered"
)

// StandardTrackers returns the five configurations of Fig. 2:
// SPMD (no AMT), AMT without LB, AMT w/GrapevineLB, AMT w/GreedyLB,
// AMT w/HierLB, AMT w/TemperedLB. tweak, when non-nil, adjusts the
// tempered-family configurations (e.g. fewer trials for quick runs).
func StandardTrackers(tweak func(core.EngineConfig) core.EngineConfig) []*Tracker {
	adjust := func(cfg core.Config) core.EngineConfig {
		ec := core.EngineConfig{Config: cfg}
		if tweak != nil {
			ec = tweak(ec)
		}
		return ec
	}
	return []*Tracker{
		{Name: "SPMD (no AMT)"},
		{Name: "AMT without LB", AMT: true},
		{Name: "AMT w/GrapevineLB", AMT: true, Strategy: tempered.New(adjust(core.Grapevine()))},
		{Name: "AMT w/GreedyLB", AMT: true, Strategy: greedy.New()},
		{Name: "AMT w/HierLB", AMT: true, Strategy: hier.New(8), HierSchedule: true},
		{Name: "AMT w/TemperedLB", AMT: true, Strategy: tempered.New(adjust(core.Tempered()))},
	}
}

// OrderingTrackers returns the Fig. 4d configurations: TemperedLB with
// the three traversal orderings of §V-E.
func OrderingTrackers(tweak func(core.EngineConfig) core.EngineConfig) []*Tracker {
	mk := func(ord core.Ordering) *Tracker {
		cfg := core.EngineConfig{Config: core.Tempered()}
		cfg.Order = ord
		if tweak != nil {
			cfg = tweak(cfg)
		}
		return &Tracker{
			Name:     "TemperedLB/" + ord.String(),
			AMT:      true,
			Strategy: tempered.New(cfg),
		}
	}
	return []*Tracker{
		mk(core.OrderLoadIntensive),
		mk(core.OrderFewestMigrations),
		mk(core.OrderLightest),
	}
}

// RunTrackers builds the experiment and runs it to completion, the
// trackers of each step spread over GOMAXPROCS goroutines. The results
// are identical at any worker count.
func RunTrackers(cfg empire.Config, trackers []*Tracker) (*Experiment, error) {
	e, err := NewExperiment(cfg, DefaultCostModel(), trackers)
	if err != nil {
		return nil, err
	}
	if err := e.Run(); err != nil {
		return nil, err
	}
	return e, nil
}

// baseline locates the SPMD tracker for speedup computation (falls back
// to the first tracker).
func baseline(trackers []*Tracker) *Tracker {
	for _, t := range trackers {
		if !t.AMT && t.Strategy == nil {
			return t
		}
	}
	return trackers[0]
}

// RenderFig2 writes the overall-performance comparison: the stacked
// particle/non-particle totals and the speedup multipliers against the
// SPMD baseline that annotate the bars of Fig. 2.
func RenderFig2(w io.Writer, trackers []*Tracker) {
	base := baseline(trackers)
	fmt.Fprintf(w, "Fig. 2: overall performance (virtual seconds)\n")
	fmt.Fprintf(w, "%-22s %10s %10s %10s %10s %10s\n",
		"Configuration", "particle", "non-part.", "total", "speedup", "p-speedup")
	for _, t := range trackers {
		fmt.Fprintf(w, "%-22s %10.0f %10.0f %10.0f %9.2fx %9.2fx\n",
			t.Name, t.Breakdown.TP, t.Breakdown.TN+t.Breakdown.TLB, t.Breakdown.TTotal,
			base.Breakdown.TTotal/t.Breakdown.TTotal,
			base.Breakdown.TP/t.Breakdown.TP)
	}
}

// RenderFig3 writes the execution-time breakdown table of Fig. 3.
func RenderFig3(w io.Writer, trackers []*Tracker) {
	fmt.Fprintf(w, "Fig. 3: execution time breakdown (virtual seconds)\n")
	fmt.Fprintf(w, "%-22s %8s %8s %8s %8s\n", "Type", "t_n", "t_p", "t_lb", "t_total")
	for _, t := range trackers {
		fmt.Fprintf(w, "%-22s %8.0f %8.0f %8.0f %8.0f\n",
			t.Name, t.Breakdown.TN, t.Breakdown.TP, t.Breakdown.TLB, t.Breakdown.TTotal)
	}
}

// RenderLBStats writes the per-configuration balancing activity totals
// (invocations, messages, migrations) behind the t_lb column.
func RenderLBStats(w io.Writer, trackers []*Tracker) {
	fmt.Fprintf(w, "LB activity totals\n")
	fmt.Fprintf(w, "%-22s %8s %12s %12s %12s\n", "Configuration", "invocs", "messages", "moved-tasks", "moved-load")
	for _, t := range trackers {
		fmt.Fprintf(w, "%-22s %8d %12d %12d %12.2f\n",
			t.Name, t.LBStats.Invocations, t.LBStats.Messages, t.LBStats.MovedTasks, t.LBStats.MovedLoad)
	}
}

// RenderFig4a writes the per-timestep full-step time series, sampled
// every `every` steps to keep the output readable.
func RenderFig4a(w io.Writer, trackers []*Tracker, every int) {
	fmt.Fprintf(w, "Fig. 4a: full step time per timestep (virtual seconds)\n")
	renderSeries(w, trackers, every, func(t *Tracker) []float64 { return t.Series.StepTime })
}

// RenderFig4b writes the per-rank task load extrema and the achievable
// lower bound for the LB-enabled configurations.
func RenderFig4b(w io.Writer, trackers []*Tracker, every int) {
	fmt.Fprintf(w, "Fig. 4b: per-rank task load extrema over time\n")
	var cols []*Tracker
	for _, t := range trackers {
		if t.AMT && t.Strategy != nil {
			cols = append(cols, t)
		}
	}
	if len(cols) == 0 {
		cols = trackers
	}
	fmt.Fprintf(w, "%-6s", "step")
	for _, t := range cols {
		fmt.Fprintf(w, " %14s-max %14s-min", short(t.Name), short(t.Name))
	}
	fmt.Fprintf(w, " %18s\n", "lower-bound(max)")
	n := len(cols[0].Series.MaxLoad)
	for s := 0; s < n; s += every {
		fmt.Fprintf(w, "%-6d", s+1)
		for _, t := range cols {
			fmt.Fprintf(w, " %18.4f %18.4f", t.Series.MaxLoad[s], t.Series.MinLoad[s])
		}
		fmt.Fprintf(w, " %18.4f\n", cols[len(cols)-1].Series.LowerBound[s])
	}
}

// RenderFig4c writes the imbalance metric over time per configuration.
func RenderFig4c(w io.Writer, trackers []*Tracker, every int) {
	fmt.Fprintf(w, "Fig. 4c: imbalance metric I over time\n")
	renderSeries(w, trackers, every, func(t *Tracker) []float64 { return t.Series.Imbalance })
}

// RenderFig4d writes the particle-update comparison of the traversal
// orderings: totals plus the sampled per-step series.
func RenderFig4d(w io.Writer, trackers []*Tracker, every int) {
	fmt.Fprintf(w, "Fig. 4d: particle update time by traversal ordering\n")
	for _, t := range trackers {
		fmt.Fprintf(w, "%-32s total particle time %10.0f\n", t.Name, t.Breakdown.TP)
	}
	renderSeries(w, trackers, every, func(t *Tracker) []float64 { return t.Series.MaxLoad })
}

func renderSeries(w io.Writer, trackers []*Tracker, every int, get func(*Tracker) []float64) {
	if every < 1 {
		every = 1
	}
	fmt.Fprintf(w, "%-6s", "step")
	for _, t := range trackers {
		fmt.Fprintf(w, " %18s", short(t.Name))
	}
	fmt.Fprintln(w)
	n := len(get(trackers[0]))
	for s := 0; s < n; s += every {
		fmt.Fprintf(w, "%-6d", s+1)
		for _, t := range trackers {
			fmt.Fprintf(w, " %18.4f", get(t)[s])
		}
		fmt.Fprintln(w)
	}
}

// short abbreviates configuration names for column headers.
func short(name string) string {
	if len(name) <= 18 {
		return name
	}
	return name[len(name)-18:]
}

// PlotStepTime renders an ASCII chart of the per-step full step time
// (Fig. 4a's visual form) for the terminal.
func PlotStepTime(w io.Writer, trackers []*Tracker, width, height int) {
	plotSeries(w, "Fig. 4a (ASCII): full step time per timestep", trackers, width, height,
		func(t *Tracker) []float64 { return t.Series.StepTime })
}

// PlotImbalance renders an ASCII chart of the imbalance series
// (Fig. 4c's visual form).
func PlotImbalance(w io.Writer, trackers []*Tracker, width, height int) {
	plotSeries(w, "Fig. 4c (ASCII): imbalance metric I over time", trackers, width, height,
		func(t *Tracker) []float64 { return t.Series.Imbalance })
}

func plotSeries(w io.Writer, title string, trackers []*Tracker, width, height int, get func(*Tracker) []float64) {
	names := make([]string, len(trackers))
	series := make([][]float64, len(trackers))
	for i, t := range trackers {
		names[i] = t.Name
		series[i] = get(t)
	}
	plot(w, title, names, series, width, height)
}
