// Command empire runs the EMPIRE-like PIC benchmark across the paper's
// five configurations and emits the data behind Figs. 2, 3 and 4a–d.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"temperedlb/cmd/internal/cli"
	"temperedlb/internal/core"
	"temperedlb/internal/empire"
	"temperedlb/internal/lbaf"
	"temperedlb/internal/mesh"
	"temperedlb/internal/obs"
	"temperedlb/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("empire: ")
	// -seed is the physics seed; -trace the virtual per-step timeline, one
	// track per configuration; -serve one frame per simulated step.
	var (
		wl  = cli.Workload{Seed: 1}
		lb  = cli.Balancer{Rounds: 3}
		out cli.Outputs
	)
	wl.Register(flag.CommandLine, "seed")
	lb.Register(flag.CommandLine)
	out.Register(flag.CommandLine, "trace", "metrics", "serve")
	var (
		exp      = flag.String("exp", "all", "experiment: fig2 | fig3 | fig4a | fig4b | fig4c | fig4d | all")
		scale    = flag.String("scale", "full", "full (paper scale, 400 ranks) | small (test scale)")
		steps    = flag.Int("steps", 0, "override timestep count (0 = config default)")
		trials   = flag.Int("trials", 0, "override TemperedLB trials (0 = paper's 10)")
		every    = flag.Int("every", 0, "series sampling stride (0 = auto)")
		csvDir   = flag.String("csv", "", "also dump per-step series as CSV files into this directory")
		plot     = flag.Bool("plot", false, "render ASCII charts of the fig4a/fig4c series")
		dumpStep = flag.Int("dumpstep", 0, "run the physics to this step and dump the color loads as a JSON workload trace (requires -dumpfile)")
		dumpFile = flag.String("dumpfile", "", "trace output path for -dumpstep")
	)
	flag.Parse()
	if err := lb.Validate(); err != nil {
		log.Fatal(err)
	}

	cfg := empire.Default()
	if *scale == "small" {
		cfg = empire.Small()
	}
	cfg.Seed = wl.Seed
	if *steps > 0 {
		cfg.Steps = *steps
		cfg.Dt = 1.0 / float64(*steps)
	}
	stride := cfg.Steps / 30
	if stride < 1 {
		stride = 1
	}
	if *every > 0 {
		stride = *every
	}

	tweak := func(c core.EngineConfig) core.EngineConfig {
		if *trials > 0 {
			c.Trials = *trials
		}
		lb.Apply(&c.Config)
		return c
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }

	if *dumpStep > 0 {
		if *dumpFile == "" {
			log.Fatal("-dumpstep requires -dumpfile")
		}
		if err := dumpWorkloadAt(cfg, *dumpStep, *dumpFile); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote step-%d color loads to %s (analyze with cmd/lbaf -workload)", *dumpStep, *dumpFile)
		return
	}

	if err := out.Open(nil); err != nil {
		log.Fatal(err)
	}
	attachStream := func(trackers []*sim.Tracker) {
		for _, t := range trackers {
			t.Stream = out.Stream()
		}
	}

	var allTrackers []*sim.Tracker

	if want("fig2") || want("fig3") || want("fig4a") || want("fig4b") || want("fig4c") {
		trackers := sim.StandardTrackers(tweak)
		attachStream(trackers)
		allTrackers = append(allTrackers, trackers...)
		log.Printf("running %d configurations at %dx%d ranks, %d steps ...",
			len(trackers), cfg.RanksX, cfg.RanksY, cfg.Steps)
		if _, err := sim.RunTrackers(cfg, trackers); err != nil {
			log.Fatal(err)
		}
		if want("fig2") {
			sim.RenderFig2(os.Stdout, trackers)
			fmt.Println()
		}
		if want("fig3") {
			sim.RenderFig3(os.Stdout, trackers)
			fmt.Println()
			sim.RenderLBStats(os.Stdout, trackers)
			fmt.Println()
		}
		if want("fig4a") {
			sim.RenderFig4a(os.Stdout, trackers, stride)
			fmt.Println()
		}
		if want("fig4b") {
			sim.RenderFig4b(os.Stdout, trackers, stride)
			fmt.Println()
		}
		if want("fig4c") {
			sim.RenderFig4c(os.Stdout, trackers, stride)
			fmt.Println()
		}
		if *csvDir != "" {
			if err := sim.WriteSeriesCSV(*csvDir, trackers); err != nil {
				log.Fatal(err)
			}
			log.Printf("wrote CSV series to %s", *csvDir)
		}
		if *plot {
			sim.PlotStepTime(os.Stdout, trackers, 100, 16)
			fmt.Println()
			sim.PlotImbalance(os.Stdout, trackers, 100, 16)
			fmt.Println()
		}
	}
	if want("fig4d") {
		trackers := sim.OrderingTrackers(tweak)
		attachStream(trackers)
		allTrackers = append(allTrackers, trackers...)
		log.Printf("running %d ordering configurations ...", len(trackers))
		if _, err := sim.RunTrackers(cfg, trackers); err != nil {
			log.Fatal(err)
		}
		sim.RenderFig4d(os.Stdout, trackers, stride)
	}
	if !strings.Contains("fig2 fig3 fig4a fig4b fig4c fig4d all", *exp) {
		log.Fatalf("unknown experiment %q", *exp)
	}

	x := cli.Export{Metrics: trackerMetrics(allTrackers)}
	if out.Trace != "" {
		x.Events, x.Tracks = virtualTimeline(allTrackers)
	}
	if err := out.Finish(x); err != nil {
		log.Fatal(err)
	}
}

// virtualTimeline converts each tracker's per-step series into trace
// events on the simulation's virtual clock: one track per configuration,
// one lb.iteration span per timestep (duration = modeled step time,
// value = imbalance after the step), bracketed by an lb.run span.
func virtualTimeline(trackers []*sim.Tracker) ([]obs.Event, map[int]string) {
	var events []obs.Event
	names := map[int]string{}
	for idx, t := range trackers {
		names[idx] = t.Name
		cum := time.Duration(0)
		events = append(events, obs.Event{
			Type: obs.EvLBBegin, Rank: idx, Peer: -1, Object: -1, Name: t.Name,
		})
		for i, st := range t.Series.StepTime {
			begin := obs.Event{
				Type: obs.EvIterBegin, Rank: idx, Peer: -1, Object: -1,
				Iteration: i + 1, Name: t.Name, TS: cum,
			}
			if i < len(t.Series.Imbalance) {
				begin.Value = t.Series.Imbalance[i]
			}
			cum += time.Duration(st * float64(time.Second))
			events = append(events, begin, obs.Event{
				Type: obs.EvIterEnd, Rank: idx, Peer: -1, Object: -1,
				Iteration: i + 1, TS: cum,
			})
		}
		events = append(events, obs.Event{
			Type: obs.EvLBEnd, Rank: idx, Peer: -1, Object: -1, Name: t.Name, TS: cum,
			Value: float64(cum) / float64(time.Second),
		})
	}
	return events, names
}

// trackerMetrics summarizes each configuration's accounting as a metrics
// registry labelled by configuration name.
func trackerMetrics(trackers []*sim.Tracker) *obs.Metrics {
	m := obs.NewMetrics()
	m.SetHelp("empire_lb_invocations_total", "Load balancer invocations, by configuration.")
	m.SetHelp("empire_lb_messages_total", "Balancer algorithm messages, by configuration.")
	m.SetHelp("empire_lb_moved_tasks_total", "Tasks migrated by the balancer, by configuration.")
	m.SetHelp("empire_lb_moved_load", "Load units migrated by the balancer, by configuration.")
	m.SetHelp("empire_total_step_seconds", "Total modeled step time in virtual seconds.")
	m.SetHelp("empire_imbalance_final", "Imbalance I after the final timestep.")
	for _, t := range trackers {
		label := cli.MetricLabel(t.Name)
		m.Counter(obs.LabeledName("empire_lb_invocations_total", "config", label)).Add(int64(t.LBStats.Invocations))
		m.Counter(obs.LabeledName("empire_lb_messages_total", "config", label)).Add(int64(t.LBStats.Messages))
		m.Counter(obs.LabeledName("empire_lb_moved_tasks_total", "config", label)).Add(int64(t.LBStats.MovedTasks))
		m.Gauge(obs.LabeledName("empire_lb_moved_load", "config", label)).Set(t.LBStats.MovedLoad)
		total := 0.0
		for _, st := range t.Series.StepTime {
			total += st
		}
		m.Gauge(obs.LabeledName("empire_total_step_seconds", "config", label)).Set(total)
		if n := len(t.Series.Imbalance); n > 0 {
			m.Gauge(obs.LabeledName("empire_imbalance_final", "config", label)).Set(t.Series.Imbalance[n-1])
		}
	}
	return m
}

// dumpWorkloadAt advances the physics alone to the given step and
// writes the per-color loads, homed under the static SPMD mapping, as a
// JSON workload trace that cmd/lbaf can analyze.
func dumpWorkloadAt(cfg empire.Config, step int, path string) error {
	app, err := empire.NewApp(cfg)
	if err != nil {
		return err
	}
	var counts []int
	for s := 0; s < step; s++ {
		counts = app.Step()
	}
	loads := app.ColorLoads(counts)
	a := core.NewAssignment(cfg.NumRanks())
	for c, l := range loads {
		a.Add(l, app.Coloring.HomeRank(mesh.ColorID(c)))
	}
	return cli.WriteExport(path, func(w io.Writer) error { return lbaf.SaveWorkload(w, a) })
}
