package lbaf

import (
	"fmt"
	"io"
	"strings"

	"temperedlb/internal/core"
	"temperedlb/internal/exper"
	"temperedlb/internal/workload"
)

// Row is one line of an iteration table: the §V-B/§V-D columns.
type Row struct {
	Iteration     int
	Transfers     int
	Rejected      int
	RejectionRate float64 // percent
	Imbalance     float64
}

// Table is a rendered-ready iteration table. Row 0 (the initial
// distribution, no transfer columns) is represented by InitialImbalance.
type Table struct {
	Title            string
	InitialImbalance float64
	Rows             []Row
	// GossipMessages and GossipEntries total the communication volume of
	// all inform stages, for the footnote-2 scalability discussion.
	GossipMessages int
	GossipEntries  int
}

// RunIterationTable generates the workload, runs a single trial of
// cfg.Iterations inform+transfer passes, and tabulates each iteration.
// Trials is forced to 1 because the paper's tables trace one trial.
func RunIterationTable(title string, spec workload.Spec, cfg core.Config) (Table, error) {
	a, err := workload.Generate(spec)
	if err != nil {
		return Table{}, err
	}
	return RunIterationTableOn(title, a, core.EngineConfig{Config: cfg})
}

// RunIterationTableOn is RunIterationTable over a pre-built assignment.
func RunIterationTableOn(title string, a *core.Assignment, cfg core.EngineConfig) (Table, error) {
	cfg.Trials = 1
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return Table{}, err
	}
	res, err := eng.Run(a)
	if err != nil {
		return Table{}, err
	}
	t := Table{Title: title, InitialImbalance: res.InitialImbalance}
	for _, it := range res.History {
		t.Rows = append(t.Rows, Row{
			Iteration:     it.Iteration,
			Transfers:     it.Transfers,
			Rejected:      it.Rejected,
			RejectionRate: it.RejectionRate(),
			Imbalance:     it.Imbalance,
		})
		t.GossipMessages += it.GossipMessages
		t.GossipEntries += it.GossipEntries
	}
	return t, nil
}

// Render writes the table in the paper's column layout.
func (t Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	fmt.Fprintf(w, "%-10s %-10s %-10s %-14s %-12s\n", "Iteration", "Transfers", "Rejected", "Rejection(%)", "Imbalance")
	fmt.Fprintf(w, "%-10d %-10s %-10s %-14s %-12.4g\n", 0, "-", "-", "-", t.InitialImbalance)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-10d %-10d %-10d %-14.2f %-12.4g\n",
			r.Iteration, r.Transfers, r.Rejected, r.RejectionRate, r.Imbalance)
	}
	fmt.Fprintf(w, "gossip: %d messages, %d payload entries\n", t.GossipMessages, t.GossipEntries)
}

// String renders the table to a string.
func (t Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// Comparison is the §V-D side-by-side imbalance table: the original
// criterion (line 35) against the relaxed criterion (line 37) on the
// same case.
type Comparison struct {
	Original Table
	Relaxed  Table
}

// RunComparison builds both tables over the identical initial
// distribution.
func RunComparison(spec workload.Spec, base core.EngineConfig) (Comparison, error) {
	a, err := workload.Generate(spec)
	if err != nil {
		return Comparison{}, err
	}
	return RunComparisonOn(a, base)
}

// RunComparisonOn is RunComparison over a pre-built assignment (e.g. a
// loaded workload trace), running the two criterion tables concurrently.
// Each table owns its engine and seeded streams over the shared
// read-only assignment, so the output is bit-identical to the serial run.
func RunComparisonOn(a *core.Assignment, base core.EngineConfig) (Comparison, error) {
	return runComparisonOn(a, base, 0)
}

// runComparisonOn is RunComparisonOn on up to workers goroutines (0 means
// GOMAXPROCS, 1 runs serially): the serial mode is the reference the
// determinism tests compare against.
func runComparisonOn(a *core.Assignment, base core.EngineConfig, workers int) (Comparison, error) {
	origCfg := base
	origCfg.Criterion = core.CriterionOriginal
	origCfg.CMF = core.CMFOriginal
	origCfg.RecomputeCMF = false

	relCfg := base
	relCfg.Criterion = core.CriterionRelaxed
	relCfg.CMF = core.CMFModified
	relCfg.RecomputeCMF = true

	jobs := []struct {
		title string
		cfg   core.EngineConfig
	}{
		{"criterion 35 (original)", origCfg},
		{"criterion 37 (relaxed)", relCfg},
	}
	tables, err := exper.MapErr(len(jobs), workers, func(i int) (Table, error) {
		return RunIterationTableOn(jobs[i].title, a, jobs[i].cfg)
	})
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{Original: tables[0], Relaxed: tables[1]}, nil
}

// Render writes the comparison in the paper's layout: iteration index,
// imbalance under each criterion.
func (c Comparison) Render(w io.Writer) {
	fmt.Fprintf(w, "%-10s %-18s %-18s\n", "Iteration", "Criterion 35 (I)", "Criterion 37 (I)")
	fmt.Fprintf(w, "%-10d %-18.4g %-18.4g\n", 0, c.Original.InitialImbalance, c.Relaxed.InitialImbalance)
	n := len(c.Original.Rows)
	if len(c.Relaxed.Rows) > n {
		n = len(c.Relaxed.Rows)
	}
	for i := 0; i < n; i++ {
		var o, r string
		if i < len(c.Original.Rows) {
			o = fmt.Sprintf("%.4g", c.Original.Rows[i].Imbalance)
		}
		if i < len(c.Relaxed.Rows) {
			r = fmt.Sprintf("%.4g", c.Relaxed.Rows[i].Imbalance)
		}
		fmt.Fprintf(w, "%-10d %-18s %-18s\n", i+1, o, r)
	}
}

// String renders the comparison to a string.
func (c Comparison) String() string {
	var b strings.Builder
	c.Render(&b)
	return b.String()
}
