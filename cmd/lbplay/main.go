// Command lbplay runs any of the bundled load balancing strategies on a
// synthetic workload — either through the offline engine or, with
// -distributed, the gossip balancer on a real AMT job stood up by the one
// launcher (amt.Launch: in memory, or an in-process unix/tcp socket
// cluster) — and prints before/after statistics. The shared flags come
// from cmd/internal/cli; cmd/lbserve runs the online service.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"

	"temperedlb"
	"temperedlb/cmd/internal/cli"
	"temperedlb/internal/amt"
)

// options is lbplay's command line: the three shared groups and its own
// three flags.
type options struct {
	wl  cli.Workload
	rt  cli.Runtime
	out cli.Outputs

	strategy, order string
	distributed     bool
}

// parse declares lbplay's flags on fs, parses and validates args, and
// refuses a flag the chosen mode does not read: engine mode takes the
// workload, -strategy, -order and -trace; -distributed takes everything
// but those two, -nodes only on a socket transport.
func parse(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{
		wl: cli.Workload{Ranks: 64, Tasks: 1000, Loaded: 4, Placement: "clustered", Loads: "uniform", Seed: 1},
		rt: cli.Runtime{Transport: "memory", Nodes: 2, Fanout: 4},
	}
	workload := o.wl.Register(fs)
	runtime := o.rt.Register(fs)
	outputs := o.out.Register(fs)
	fs.StringVar(&o.strategy, "strategy", "tempered", "engine strategy: tempered | grapevine | greedy | hier | refine")
	fs.StringVar(&o.order, "order", "fewest-migrations", "task traversal ordering of the tempered engine strategy")
	fs.BoolVar(&o.distributed, "distributed", false, "run the gossip balancer on the real AMT runtime (then -transport, -nodes, -fanout, -faults, -rounds and every output apply)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := o.rt.Validate(o.wl.Ranks, nil); err != nil {
		return nil, err
	}
	if o.distributed {
		when := "with -distributed"
		if o.rt.Transport == "memory" {
			when += " -transport memory"
			runtime = slices.DeleteFunc(runtime, func(name string) bool { return name == "nodes" })
		}
		return o, cli.CheckApplies(fs, when, workload, runtime, outputs, []string{"distributed"})
	}
	return o, cli.CheckApplies(fs, "without -distributed", workload, []string{"strategy", "order", "trace"})
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("lbplay: ")
	o, err := parse(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	a, err := o.wl.Generate()
	if err != nil {
		log.Fatal(err)
	}
	if o.distributed {
		err = runDistributed(o, a)
	} else {
		err = runEngine(o, a)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// runEngine rebalances a with one of the offline strategies.
func runEngine(o *options, a *temperedlb.Assignment) error {
	var s temperedlb.Strategy
	switch o.strategy {
	case "tempered":
		cfg := temperedlb.Tempered()
		cfg.Seed = o.wl.Seed
		ord, err := temperedlb.ParseOrdering(o.order)
		if err != nil {
			return err
		}
		cfg.Order = ord
		cfg.Tracer = o.out.Tracer()
		s = temperedlb.NewTemperedLBWith(cfg)
	case "grapevine":
		s = temperedlb.NewGrapevineLB()
	case "greedy":
		s = temperedlb.NewGreedyLB()
	case "hier":
		s = temperedlb.NewHierLB(4)
	case "refine":
		s = temperedlb.NewRefineLB()
	default:
		return fmt.Errorf("-strategy %q: want tempered, grapevine, greedy, hier or refine", o.strategy)
	}
	if o.out.Trace != "" && o.strategy != "tempered" {
		log.Printf("note: strategy %q emits no trace events (only tempered does in engine mode)", o.strategy)
	}

	plan, err := s.Rebalance(a)
	if err != nil {
		return err
	}
	fmt.Printf("strategy        %s\n", s.Name())
	fmt.Printf("imbalance       %.4f -> %.4f\n", plan.InitialImbalance, plan.FinalImbalance)
	fmt.Printf("migrations      %d tasks, %.2f load units\n", plan.MovedTasks(), plan.MovedLoad)
	fmt.Printf("algorithm cost  %d messages, %d epochs\n", plan.Messages, plan.Epochs)
	return o.out.Finish(cli.Export{})
}

// runDistributed scatters a's tasks as objects over a real AMT job and
// executes the distributed protocol (cli.Runtime.RunDemo, the run lbnode
// shares), with the observability the output flags ask for attached to
// the job's first node; any one node's stream receives the job's frames.
func runDistributed(o *options, a *temperedlb.Assignment) error {
	n := a.NumRanks()
	job, err := o.rt.Launch(n, uint64(o.wl.Seed))
	if err != nil {
		return err
	}
	defer job.Close()
	rt0 := job.Runtimes[0]
	if err := o.out.Open(rt0); err != nil {
		return err
	}
	results, err := o.rt.RunDemo(job, a, o.wl.Seed)
	if err != nil {
		return err
	}

	res, ns := results[0], job.Stats()
	if o.rt.Transport == "memory" {
		fmt.Printf("strategy        TemperedLB (distributed, %d ranks / %d goroutines)\n", n, n)
	} else {
		fmt.Printf("strategy        TemperedLB (distributed, %d ranks over %d %s-socket nodes)\n", n, o.rt.Nodes, o.rt.Transport)
	}
	fmt.Printf("imbalance       %.4f -> %.4f (best trial %d iter %d)\n",
		res.InitialImbalance, res.FinalImbalance, res.BestTrial, res.BestIteration)
	fmt.Printf("migrations      %d objects actually moved\n", ns.Ranks[amt.Migrations])
	fmt.Printf("transport       %d messages total (gossip, transfers, termination, commit)\n", ns.Transport.Sent.Total())
	fmt.Printf("collectives     %d-ary reduction tree\n", rt0.Fanout())
	fmt.Printf("protocol cost   %d gossip + %d transfer messages, %.3fs wall clock\n",
		res.GossipMessages, res.TransferMessages, res.ElapsedSeconds)
	if o.rt.Transport != "memory" {
		fmt.Printf("wire            %d frames / %d bytes shipped between nodes, %d redials\n",
			ns.Wire.FramesOut, ns.Wire.BytesOut, ns.Wire.Redials)
	}
	if sp, _ := o.rt.FaultSpec(); !sp.Empty() { // Validate has vouched for it
		fmt.Printf("faults          %s\n", sp)
		st := ns.Faults()
		fmt.Printf("fault damage    %d dropped, %d duplicated; recovery: %d retries, %d dup discards\n",
			st.Dropped, st.Duplicated, st.Retries, st.DupDrops)
	}
	return o.out.Finish(cli.Export{Result: res.StripTiming()})
}
