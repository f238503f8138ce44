// Command lbplay runs any of the bundled load balancing strategies on a
// synthetic workload — either through the offline engine or, with
// -distributed, the gossip balancer on a real AMT job — and prints
// before/after statistics. The runtime flags say how the job is hosted
// (cli.Runtime.Launch): in memory, as an in-process unix/tcp socket
// cluster, or with -node k as one of -nodes processes — the paper's MPI
// job spanning nodes. Processes with matching flags, -node 0..N-1 and one
// peers file (-peers, naming where every node listens) form one job whose
// DistResult is the single-process run's (`make wire-smoke`; OPERATIONS.md
// is the operator's guide). The shared flags come from cmd/internal/cli;
// cmd/lbserve runs the online service.
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
	"temperedlb/internal/comm/wire"
)

// options is lbplay's command line: four shared groups (of the balancer's
// knobs, -rounds only) and its own three flags.
type options struct {
	wl  cli.Workload
	lb  cli.Balancer
	rt  cli.Runtime
	out cli.Outputs

	strategy, order string
	distributed     bool
}

// parse declares lbplay's flags on fs, parses and validates args, and
// refuses a flag the chosen mode does not read: engine mode takes the
// workload, -strategy, -order and -trace; -distributed everything but those
// two, -nodes and -node on a socket transport only, the rest under -node.
func parse(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{
		wl: cli.Workload{Ranks: 64, Tasks: 1000, Loaded: 4, Placement: "clustered", Loads: "uniform", Seed: 1},
		rt: cli.Runtime{Transport: "memory", Nodes: 2},
	}
	workload := o.wl.Register(fs)
	balancer := o.lb.Register(fs, "rounds")
	runtime := o.rt.Register(fs)
	outputs := o.out.Register(fs)
	fs.StringVar(&o.strategy, "strategy", "tempered", "engine strategy: tempered | grapevine | greedy | hier")
	fs.StringVar(&o.order, "order", "fewest-migrations", "task traversal ordering of the tempered engine strategy")
	fs.BoolVar(&o.distributed, "distributed", false, "run the gossip balancer on the real AMT runtime (then -transport, -nodes, -faults, -rounds, -node and every output apply)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	reads, when := [][]string{workload, {"strategy", "order", "trace"}}, "without -distributed"
	if o.distributed {
		var unread []string
		switch when = "with -distributed"; {
		case o.rt.Transport == "memory":
			when, unread = when+" -transport memory", append(cli.NodeFlags(), "nodes", "node")
		case o.rt.Node < 0:
			when, unread = when+" and no -node", cli.NodeFlags()
		}
		runtime = slices.DeleteFunc(runtime, func(name string) bool { return slices.Contains(unread, name) })
		reads = [][]string{workload, balancer, runtime, outputs, {"distributed"}}
	}
	if err := cli.CheckApplies(fs, when, reads...); err != nil {
		return nil, err
	}
	if err := o.lb.Validate(); err != nil {
		return nil, err
	}
	return o, o.rt.Validate(o.wl.Ranks)
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
		cfg := temperedlb.EngineConfig{Config: temperedlb.Tempered()}
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
	default:
		return fmt.Errorf("-strategy %q: want tempered, grapevine, greedy or hier", o.strategy)
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
// executes the distributed protocol (cli.Balancer.RunDemo), with the
// observability the output flags ask for attached to the first node this
// process hosts; any one node's stream receives the job's frames. Under
// -node the counts printed are this node's, the imbalance line the job's.
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
	results, err := o.lb.RunDemo(job, a, o.wl.Seed)
	if err != nil {
		return err
	}

	// This process reports its first rank's result: rank 0's unless it
	// hosts one node of a multi-process job.
	lo, hi := 0, n
	if o.rt.Node >= 0 {
		bounds := wire.SplitRanks(n, o.rt.Nodes)
		lo, hi = bounds[o.rt.Node], bounds[o.rt.Node+1]
	}
	res, ns := results[lo], job.Stats()
	switch {
	case o.rt.Transport == "memory":
		fmt.Printf("strategy        TemperedLB (distributed, %d ranks / %d goroutines)\n", n, n)
	case o.rt.Node < 0:
		fmt.Printf("strategy        TemperedLB (distributed, %d ranks over %d %s-socket nodes)\n", n, o.rt.Nodes, o.rt.Transport)
	default:
		fmt.Printf("strategy        TemperedLB (distributed, node %d of %d %s-socket nodes, ranks [%d,%d) of %d)\n", o.rt.Node, o.rt.Nodes, o.rt.Transport, lo, hi, n)
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
