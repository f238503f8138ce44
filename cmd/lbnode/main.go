package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"temperedlb/cmd/internal/cli"
	"temperedlb/internal/comm/wire"
)

func main() {
	log.SetFlags(0)
	// Every flag of the three groups must match on all nodes, -faults
	// (this node's sends) and the outputs (this node's view: frames
	// describe the whole job, metrics and trace this node) apart.
	var (
		wl   = cli.Workload{Ranks: 12, Tasks: 1000, Loaded: 4, Placement: "clustered", Loads: "uniform", Seed: 1}
		rtf  = cli.Runtime{Transport: "tcp", Nodes: 2, Fanout: 4}
		out  cli.Outputs
		self cli.Self
	)
	wl.Register(flag.CommandLine)
	rtf.Register(flag.CommandLine)
	out.Register(flag.CommandLine, "metrics", "serve", "result")
	flag.IntVar(&self.Node, "node", -1, "this process's node index in [0,nodes)")
	flag.StringVar(&self.Listen, "listen", "", "address to listen on: host:port for tcp (default 127.0.0.1:0), socket path for unix (required)")
	flag.StringVar(&self.Peers, "peers", "", "static rendezvous: file of \"<node> <addr>\" lines covering every node")
	flag.StringVar(&self.Coord, "coord", "", "coordinator rendezvous: host:port of a running lbcoord")
	var (
		jobID   = flag.Uint64("jobid", 0, "job id guarding against cross-job connections (must match on all nodes)")
		timeout = flag.Duration("timeout", 30*time.Second, "rendezvous and peer-connect timeout")
		verbose = flag.Bool("v", false, "log connection lifecycle events")
	)
	flag.Parse()
	log.SetPrefix(fmt.Sprintf("lbnode %d: ", self.Node))

	if err := rtf.Validate(wl.Ranks, &self); err != nil {
		log.Fatal(err)
	}
	a, err := wl.Generate()
	if err != nil {
		log.Fatal(err)
	}

	cfg := wire.Config{
		Network: rtf.Transport,
		Ranks:   wl.Ranks, Nodes: rtf.Nodes, Self: self.Node,
		Listen: self.Listen, JobID: *jobID,
		ConnectTimeout: *timeout,
	}
	if *verbose {
		cfg.Logf = log.Printf
	}
	tr, err := wire.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer tr.Close()
	lo, hi := tr.LocalRange()
	log.Printf("listening on %s (%s), hosting ranks [%d,%d) of %d", tr.Addr(), rtf.Transport, lo, hi, wl.Ranks)

	var specs []wire.NodeSpec
	if self.Peers != "" {
		specs, err = wire.ParsePeersFile(self.Peers, wl.Ranks, rtf.Nodes)
	} else {
		me := wire.NodeSpec{Node: self.Node, Lo: lo, Hi: hi, Addr: tr.Addr()}
		specs, err = wire.Rendezvous("tcp", self.Coord, me, *timeout)
	}
	if err != nil {
		log.Fatal(err)
	}
	if err := tr.Connect(specs); err != nil {
		log.Fatal(err)
	}
	log.Printf("connected to %d peers", rtf.Nodes-1)

	// From here on this is `lbplay -distributed` on one node's share of
	// the job: the same launcher type, the same run, the same epilogue.
	job, err := rtf.Join(tr)
	if err != nil {
		log.Fatal(err)
	}
	if err := out.Open(job.Runtimes[0]); err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	results, err := rtf.RunDemo(job, a, wl.Seed)
	if err != nil {
		log.Fatal(err)
	}

	res := results[lo]
	migs := 0
	for r := lo; r < hi; r++ {
		migs += results[r].Migrations
	}
	st := tr.WireStats()
	fmt.Printf("node            %d of %d, ranks [%d,%d) of %d, %s transport\n", self.Node, rtf.Nodes, lo, hi, wl.Ranks, rtf.Transport)
	fmt.Printf("imbalance       %.4f -> %.4f (best trial %d iter %d)\n",
		res.InitialImbalance, res.FinalImbalance, res.BestTrial, res.BestIteration)
	fmt.Printf("migrations      %d objects shipped out by this node's ranks\n", migs)
	fmt.Printf("wire            %d frames / %d bytes out, %d frames / %d bytes in, %d peers, %d redials\n",
		st.FramesOut, st.BytesOut, st.FramesIn, st.BytesIn, st.Peers, st.Redials)
	fmt.Printf("wall clock      %.3fs including rendezvous and drain\n", time.Since(start).Seconds())

	if err := out.Finish(cli.Export{Result: res.StripTiming()}); err != nil {
		log.Fatal(err)
	}
}
