// Command lbaf runs the Load Balancing Analysis Framework experiments:
// the §V-B and §V-D iteration tables and their comparison, plus custom
// sweeps over the algorithm's knobs.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"temperedlb/cmd/internal/cli"
	"temperedlb/internal/core"
	"temperedlb/internal/lbaf"
	"temperedlb/internal/obs"
	"temperedlb/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lbaf: ")
	// The workload is the paper's §V-B case, workload.VBCase, at a settable
	// size and seed; its placement and load model are fixed.
	var (
		wl  = cli.Workload{Ranks: 1 << 12, Tasks: 10000, Loaded: 1 << 4, Placement: "clustered", Loads: "mixture", Seed: 1}
		lb  = cli.Balancer{Rounds: 10, Iters: 10}
		out cli.Outputs
	)
	wl.Register(flag.CommandLine, "ranks", "tasks", "loaded", "seed")
	lb.Register(flag.CommandLine)
	out.Register(flag.CommandLine, "trace", "metrics")
	var (
		exp     = flag.String("exp", "compare", "experiment: vb | vd | compare | sweep-gossip | sweep-refine")
		inFile  = flag.String("workload", "", "load the workload from a JSON trace instead of generating it")
		outFile = flag.String("dump", "", "write the generated workload as a JSON trace and exit")
		fanout  = flag.Int("f", 6, "gossip fanout")
		thresh  = flag.Float64("h", 1.0, "overload threshold")
	)
	flag.Parse()
	check(lb.Validate())

	spec, err := wl.Spec()
	check(err)

	if *outFile != "" {
		a, err := workload.Generate(spec)
		check(err)
		check(cli.WriteExport(*outFile, func(w io.Writer) error { return lbaf.SaveWorkload(w, a) }))
		log.Printf("wrote %d tasks over %d ranks to %s", a.NumTasks(), a.NumRanks(), *outFile)
		return
	}
	// The tables' input: the traced workload if given (the sweeps generate theirs).
	var a *core.Assignment
	if *inFile == "" {
		a, err = workload.Generate(spec)
		check(err)
	} else {
		f, err := os.Open(*inFile)
		check(err)
		a, err = lbaf.LoadWorkload(f)
		check(err)
		check(f.Close())
	}

	var tables []lbaf.Table

	base := core.EngineConfig{Config: core.Grapevine()}
	lb.Apply(&base.Config)
	base.Fanout = *fanout
	base.Threshold = *thresh
	base.Seed = wl.Seed
	base.Tracer = out.Tracer()
	// The paper's LBAF accounting implies rejected tasks are retried
	// until a full traversal accepts nothing; enable that here so the
	// evaluation counts are comparable to the paper's tables.
	base.Passes = 0
	// The §V-D configuration, which the sweeps vary.
	relaxed := base
	relaxed.Criterion = core.CriterionRelaxed
	relaxed.CMF = core.CMFModified
	relaxed.RecomputeCMF = true

	switch *exp {
	case "vb":
		t, err := lbaf.RunIterationTableOn("§V-B: original criterion", a, base)
		check(err)
		t.Render(os.Stdout)
		tables = append(tables, t)
	case "vd":
		t, err := lbaf.RunIterationTableOn("§V-D: relaxed criterion", a, relaxed)
		check(err)
		t.Render(os.Stdout)
		tables = append(tables, t)
	case "compare":
		c, err := lbaf.RunComparisonOn(a, base)
		check(err)
		c.Original.Render(os.Stdout)
		fmt.Println()
		c.Relaxed.Render(os.Stdout)
		fmt.Println()
		c.Render(os.Stdout)
		tables = append(tables, c.Original, c.Relaxed)
	case "sweep-gossip":
		cfg := relaxed
		cfg.Trials = 1
		sw, err := lbaf.RunSweep("gossip fanout/rounds sweep (relaxed criterion)", spec,
			lbaf.GossipSweepConfigs(cfg, []int{2, 4, 6, 8}, []int{2, 4, 6, 10}))
		check(err)
		sw.Render(os.Stdout)
	case "sweep-refine":
		sw, err := lbaf.RunSweep("refinement trials/iterations sweep", spec,
			lbaf.RefinementSweepConfigs(relaxed, []int{1, 4, 10}, []int{1, 4, 8}))
		check(err)
		sw.Render(os.Stdout)
	default:
		log.Fatalf("unknown experiment %q", *exp)
	}

	if out.Metrics != "" && len(tables) == 0 {
		log.Printf("note: experiment %q produces no iteration tables; metrics file will be empty", *exp)
	}
	check(out.Finish(cli.Export{Metrics: tableMetrics(tables)}))
}

// tableMetrics republishes the paper-table columns of each iteration
// table as a metrics registry (see DESIGN.md for the column-to-metric
// mapping), labelled by the table title.
func tableMetrics(tables []lbaf.Table) *obs.Metrics {
	m := obs.NewMetrics()
	m.SetHelp("lb_transfers_total", "Accepted transfer decisions, by experiment table.")
	m.SetHelp("lb_transfers_rejected_total", "Rejected transfer decisions, by experiment table.")
	m.SetHelp("lb_gossip_messages_total", "Gossip messages delivered, by experiment table.")
	m.SetHelp("lb_gossip_entries_total", "Gossip payload entries delivered, by experiment table.")
	m.SetHelp("lb_imbalance_initial", "Imbalance I before refinement.")
	m.SetHelp("lb_imbalance_final", "Imbalance I after the last iteration.")
	for _, t := range tables {
		label := cli.MetricLabel(t.Title)
		transfers, rejected := 0, 0
		for _, row := range t.Rows {
			transfers += row.Transfers
			rejected += row.Rejected
		}
		m.Counter(obs.LabeledName("lb_transfers_total", "table", label)).Add(int64(transfers))
		m.Counter(obs.LabeledName("lb_transfers_rejected_total", "table", label)).Add(int64(rejected))
		m.Counter(obs.LabeledName("lb_gossip_messages_total", "table", label)).Add(int64(t.GossipMessages))
		m.Counter(obs.LabeledName("lb_gossip_entries_total", "table", label)).Add(int64(t.GossipEntries))
		m.Gauge(obs.LabeledName("lb_imbalance_initial", "table", label)).Set(t.InitialImbalance)
		if n := len(t.Rows); n > 0 {
			m.Gauge(obs.LabeledName("lb_imbalance_final", "table", label)).Set(t.Rows[n-1].Imbalance)
		}
	}
	return m
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
