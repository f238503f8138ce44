// Command lbserve runs the online balancer service: a deterministic
// scenario stream (ramp, diurnal, burst, churn) drives phases of work,
// a Holt level+trend load model forecasts the next phase, and a
// pluggable trigger decides when the tempered protocol is worth
// invoking. The trigger-decision log it prints is rank-identical and
// wall-clock free: the same flags produce byte-identical output on the
// in-memory transport and on Unix/TCP socket clusters at any node
// count — `make serve-smoke` holds the repo to that.
//
// Modes:
//
//	lbserve [flags]                  run the service, print the trigger log
//	                                 (-serve/-frames/-metrics to watch it)
//	lbserve -tune FAMILIES [flags]   run the service in memory once per point
//	                                 of a trigger-parameter grid, print every
//	                                 run's cost and the cheapest
//
// A flag the chosen mode does not read is refused, not ignored.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"

	"temperedlb"
	"temperedlb/cmd/internal/cli"
	"temperedlb/internal/amt"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lbserve: ")
	var (
		wl  = cli.Workload{Ranks: 8, Seed: 7}
		svc = cli.Service{Scenario: "burst", Phases: 40, Trigger: "forecast", LBCost: 20}
		rtf = cli.Runtime{Transport: "memory", Nodes: 2}
		out cli.Outputs
	)
	wl.Register(flag.CommandLine, "ranks", "seed")
	svc.Register(flag.CommandLine)
	rtf.Register(flag.CommandLine, "transport", "nodes")
	out.Register(flag.CommandLine, "metrics", "serve", "frames")
	var (
		// Scenario.
		items = flag.Int("items", 64, "number of logical tasks over the run")
		hot   = flag.Int("hot", 0, "ranks homing the skewed share of the items (0 = ranks/4)")

		// Predictor.
		alpha  = flag.Float64("alpha", 0.5, "load model level smoothing in (0,1]")
		beta   = flag.Float64("beta", 0.3, "load model trend smoothing in (0,1]")
		maxAge = flag.Int("maxage", 0, "phases an absent object survives in the model (0 = default)")

		// Modes and output.
		tuneFams = flag.String("tune", "", "tune trigger parameters: run the scenario in memory once per grid point of the comma-separated families (every,threshold,forecast) or \"all\"")
		quiet    = flag.Bool("quiet", false, "suppress the per-phase trigger log, print only the summary")
	)
	flag.Parse()

	err := rtf.Validate(wl.Ranks)
	if err == nil {
		// What each mode reads: -tune the scenario and the load model; a run
		// those and the job's flags, -nodes only where there are nodes.
		var (
			scenario = []string{"ranks", "seed", "scenario", "phases", "items", "hot"}
			model    = []string{"alpha", "beta", "maxage", "lbcost"}
			job      = []string{"trigger", "transport", "nodes", "metrics", "serve", "frames", "quiet"}
		)
		if fs := flag.CommandLine; *tuneFams != "" {
			err = cli.CheckApplies(fs, "with -tune", scenario, model, []string{"tune"})
		} else if err = cli.CheckApplies(fs, "without -tune", scenario, model, job); err == nil && rtf.Transport == "memory" {
			job = slices.DeleteFunc(job, func(name string) bool { return name == "nodes" })
			err = cli.CheckApplies(fs, "with -transport memory", scenario, model, job)
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	// Zero means "the default" to the library, and the flags carry the
	// defaults: a zero here was typed, and would silently become one.
	for _, f := range []struct {
		name, want string
		v          float64
	}{{"alpha", "in (0,1]", *alpha}, {"beta", "in (0,1]", *beta}, {"lbcost", "> 0", svc.LBCost}} {
		if f.v == 0 {
			log.Fatalf("-%s 0: want %s (zero selects the library default)", f.name, f.want)
		}
	}
	kind, err := temperedlb.ParseScenarioKind(svc.Scenario)
	if err != nil {
		log.Fatal(err)
	}
	ts, err := temperedlb.ParseTrigger(svc.Trigger)
	if err != nil {
		log.Fatal(err)
	}
	cfg := temperedlb.ServiceConfig{
		Scenario: temperedlb.ScenarioSpec{
			Kind: kind, Ranks: wl.Ranks, Phases: svc.Phases, Items: *items, Seed: wl.Seed, Hot: *hot,
		},
		Trigger: ts,
		Alpha:   *alpha, Beta: *beta, MaxAge: *maxAge, LBCost: svc.LBCost,
	}
	// In every mode, before any work; Validate spells a field as its flag.
	if err := cfg.Validate(); err != nil {
		log.Fatalf("-%v", err)
	}

	if *tuneFams != "" {
		err = tune(*tuneFams, cfg)
	} else {
		err = serveJob(cfg, &rtf, &out, *quiet)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// serveJob stands the job up, runs the service on every rank of it and
// prints the trigger log — rank 0's result, identical on every rank apart
// from the local migration count, which is summed into it — observed as
// the output flags ask.
func serveJob(cfg temperedlb.ServiceConfig, rtf *cli.Runtime, out *cli.Outputs, quiet bool) error {
	job, err := rtf.Launch(cfg.Scenario.Ranks, uint64(cfg.Scenario.Seed)+0x5e12e)
	if err != nil {
		return err
	}
	defer job.Close()
	if err := out.Open(job.Runtimes[0]); err != nil {
		return err
	}
	results := make([]temperedlb.ServiceResult, cfg.Scenario.Ranks)
	err = job.Run(func(rt *amt.Runtime) func(*amt.Context) error {
		h := temperedlb.RegisterLBHandlers(rt, 1)
		return func(rc *amt.Context) (err error) {
			results[rc.Rank()], err = temperedlb.RunService(rc, h, cfg)
			return err
		}
	})
	if err != nil {
		return err
	}
	res := results[0]
	res.LocalMigrations = 0
	for _, r := range results {
		res.LocalMigrations += r.LocalMigrations
	}
	if quiet {
		res.Rows = nil
	}
	if err := temperedlb.WriteServiceLog(os.Stdout, cfg, res); err != nil {
		return err
	}
	return out.Finish(cli.Export{})
}

// tune grid-searches trigger parameters, each candidate one in-memory run
// of the service, and prints the sweep in grid order, the cheapest
// configuration last so it is what the eye lands on.
func tune(families string, cfg temperedlb.ServiceConfig) error {
	var fams []string
	if families != "all" {
		fams = strings.Split(families, ",")
	}
	best, all, err := temperedlb.TuneTrigger(cfg, fams)
	if err != nil {
		return err
	}
	fmt.Printf("# tune: %d candidates over %d phases, lbcost %g\n", len(all), cfg.Scenario.Phases, cfg.LBCost)
	for _, c := range all {
		fmt.Printf("%-24s fires %3d  waste %10.4f  lb_paid %10.4f  total %10.4f\n",
			c.Spec, c.Result.Fires, c.Result.TotalWaste, c.Result.LBPaid, c.Result.TotalCost)
	}
	fmt.Printf("# best: %s  total %.4f (fires %d)\n", best.Spec, best.Result.TotalCost, best.Result.Fires)
	return nil
}
