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
	"strings"

	"temperedlb/internal/comm"
	"temperedlb/internal/core"
	"temperedlb/internal/lbaf"
	"temperedlb/internal/obs"
	"temperedlb/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lbaf: ")
	var (
		exp        = flag.String("exp", "compare", "experiment: vb | vd | compare")
		inFile     = flag.String("workload", "", "load the workload from a JSON trace instead of generating it")
		outFile    = flag.String("dump", "", "write the generated workload as a JSON trace and exit")
		seed       = flag.Int64("seed", 1, "workload and algorithm seed")
		iters      = flag.Int("iters", 10, "refinement iterations")
		rounds     = flag.Int("k", 10, "gossip rounds")
		fanout     = flag.Int("f", 6, "gossip fanout")
		thresh     = flag.Float64("h", 1.0, "overload threshold")
		ranks      = flag.Int("ranks", 1<<12, "total ranks")
		loaded     = flag.Int("loaded", 1<<4, "initially loaded ranks")
		tasks      = flag.Int("tasks", 10000, "task count")
		traceOut   = flag.String("trace", "", "write the engine's lb.run/lb.iteration spans as Chrome trace_event JSON to this file")
		metricsOut = flag.String("metrics", "", "write the experiment's table columns as Prometheus text metrics to this file")
		workers    = flag.Int("workers", 1, "concurrent engine runs for compare/sweep experiments (0 = GOMAXPROCS); output is identical at any worker count")
		faults     = flag.String("faults", "", "inject gossip transport faults, e.g. \"seed=7,drop=0.05,dup=0.02,delay=5ms,slow=3:2ms\" (retry knobs are distributed-only no-ops)")
	)
	flag.Parse()

	spec := workload.VBCase(*seed)
	spec.NumRanks = *ranks
	spec.LoadedRanks = *loaded
	spec.NumTasks = *tasks

	if *outFile != "" {
		a, err := workload.Generate(spec)
		check(err)
		f, err := os.Create(*outFile)
		check(err)
		check(lbaf.SaveWorkload(f, a))
		check(f.Close())
		log.Printf("wrote %d tasks over %d ranks to %s", a.NumTasks(), a.NumRanks(), *outFile)
		return
	}
	var traced *core.Assignment
	if *inFile != "" {
		f, err := os.Open(*inFile)
		check(err)
		traced, err = lbaf.LoadWorkload(f)
		check(err)
		check(f.Close())
	}
	table := func(title string, cfg core.Config) (lbaf.Table, error) {
		if traced != nil {
			return lbaf.RunIterationTableOn(title, traced, cfg)
		}
		return lbaf.RunIterationTable(title, spec, cfg)
	}

	var rec *obs.Recorder
	if *traceOut != "" {
		rec = obs.NewRecorder()
	}
	var tables []lbaf.Table

	base := core.Grapevine()
	base.Iterations = *iters
	base.Rounds = *rounds
	base.Fanout = *fanout
	base.Threshold = *thresh
	base.Seed = *seed
	faultSpec, err := comm.ParseFaultSpec(*faults)
	check(err)
	base.GossipFaults = faultSpec
	if rec != nil {
		base.Tracer = rec
	}
	// The paper's LBAF accounting implies rejected tasks are retried
	// until a full traversal accepts nothing; enable that here so the
	// evaluation counts are comparable to the paper's tables.
	base.Passes = 0

	switch *exp {
	case "vb":
		t, err := table("§V-B: original criterion", base)
		check(err)
		t.Render(os.Stdout)
		tables = append(tables, t)
	case "vd":
		cfg := base
		cfg.Criterion = core.CriterionRelaxed
		cfg.CMF = core.CMFModified
		cfg.RecomputeCMF = true
		t, err := table("§V-D: relaxed criterion", cfg)
		check(err)
		t.Render(os.Stdout)
		tables = append(tables, t)
	case "compare":
		a := traced
		if a == nil {
			var err error
			a, err = workload.Generate(spec)
			check(err)
		}
		c, err := lbaf.RunComparisonOnParallel(a, base, *workers)
		check(err)
		c.Original.Render(os.Stdout)
		fmt.Println()
		c.Relaxed.Render(os.Stdout)
		fmt.Println()
		c.Render(os.Stdout)
		tables = append(tables, c.Original, c.Relaxed)
	case "sweep-gossip":
		cfg := base
		cfg.Criterion = core.CriterionRelaxed
		cfg.CMF = core.CMFModified
		cfg.RecomputeCMF = true
		cfg.Trials = 1
		sw, err := lbaf.RunSweepParallel("gossip fanout/rounds sweep (relaxed criterion)", spec,
			lbaf.GossipSweepConfigs(cfg, []int{2, 4, 6, 8}, []int{2, 4, 6, 10}), *workers)
		check(err)
		sw.Render(os.Stdout)
	case "sweep-refine":
		cfg := base
		cfg.Criterion = core.CriterionRelaxed
		cfg.CMF = core.CMFModified
		cfg.RecomputeCMF = true
		sw, err := lbaf.RunSweepParallel("refinement trials/iterations sweep", spec,
			lbaf.RefinementSweepConfigs(cfg, []int{1, 4, 10}, []int{1, 4, 8}), *workers)
		check(err)
		sw.Render(os.Stdout)
	default:
		log.Fatalf("unknown experiment %q", *exp)
	}

	if rec != nil {
		writeExport(*traceOut, func(w io.Writer) error {
			return obs.WriteChromeTrace(w, rec.Events())
		})
		log.Printf("wrote %d trace events to %s (open in ui.perfetto.dev)", len(rec.Events()), *traceOut)
	}
	if *metricsOut != "" {
		if len(tables) == 0 {
			log.Printf("note: experiment %q produces no iteration tables; metrics file will be empty", *exp)
		}
		writeExport(*metricsOut, func(w io.Writer) error {
			return obs.WritePrometheus(w, tableMetrics(tables))
		})
		log.Printf("wrote metrics to %s", *metricsOut)
	}
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
		label := metricLabel(t.Title)
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

// metricLabel reduces a table title to a label-safe slug.
func metricLabel(title string) string {
	title = strings.ToLower(title)
	var b strings.Builder
	for _, r := range title {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case b.Len() > 0 && !strings.HasSuffix(b.String(), "_"):
			b.WriteByte('_')
		}
	}
	return strings.Trim(b.String(), "_")
}

// writeExport creates path and streams one exporter into it.
func writeExport(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
