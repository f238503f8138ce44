// Command lbnode hosts one process's share of a multi-process
// distributed load balancing job: a contiguous range of ranks behind a
// socket transport. Start N lbnode processes with the same workload
// flags and matching -ranks/-nodes, give each a distinct -node index,
// and point them at each other with either a static -peers file or a
// rendezvous coordinator (-coord, see cmd/lbcoord); together they run
// exactly the protocol a single-process `lbplay -distributed` runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"time"

	"temperedlb"
	"temperedlb/internal/comm/wire"
)

func main() {
	log.SetFlags(0)
	var (
		// Job geometry and rendezvous.
		ranks     = flag.Int("ranks", 12, "total ranks across every node of the job (must match on all nodes)")
		nodes     = flag.Int("nodes", 2, "number of lbnode processes in the job (must match on all nodes)")
		node      = flag.Int("node", -1, "this process's node index in [0,nodes)")
		transport = flag.String("transport", "tcp", "socket flavor: tcp | unix")
		listen    = flag.String("listen", "", "address to listen on: host:port for tcp (default 127.0.0.1:0), socket path for unix (required)")
		peersFile = flag.String("peers", "", "static rendezvous: file of \"<node> <addr>\" lines covering every node")
		coordAddr = flag.String("coord", "", "coordinator rendezvous: host:port of a running lbcoord")
		jobID     = flag.Uint64("jobid", 0, "job id guarding against cross-job connections (must match on all nodes)")
		timeout   = flag.Duration("timeout", 30*time.Second, "rendezvous and peer-connect timeout")

		// Workload (must match on all nodes: every node derives the same
		// deterministic assignment and instantiates only its local ranks).
		tasks     = flag.Int("tasks", 1000, "number of tasks")
		loaded    = flag.Int("loaded", 4, "initially loaded ranks (clustered placement)")
		placement = flag.String("placement", "clustered", "clustered | uniform | skewed")
		loads     = flag.String("loads", "uniform", "unit | uniform | exp | mixture")
		seed      = flag.Int64("seed", 1, "seed (must match on all nodes)")

		// Protocol knobs (must match on all nodes).
		fanout = flag.Int("fanout", 4, "arity of the collective reduction tree")
		rounds = flag.Int("rounds", 0, "gossip rounds per iteration (0 = strategy default; cross-transport diffs need -rounds 1)")
		faults = flag.String("faults", "", "inject transport faults on this node's sends, e.g. \"seed=7,drop=0.01,delay=5ms\"")

		// Observability and output.
		serveAddr  = flag.String("serve", "", "serve live observability HTTP on this address; works on any node: frames describe the whole job, metrics this node")
		metricsOut = flag.String("metrics", "", "write this node's runtime metrics in Prometheus text format to this file")
		resultOut  = flag.String("result", "", "write the first local rank's protocol-determined DistResult as JSON (timing stripped; diffable across transports and processes)")
		verbose    = flag.Bool("v", false, "log connection lifecycle events")
	)
	flag.Parse()
	log.SetPrefix(fmt.Sprintf("lbnode %d: ", *node))

	if err := validateGeometry(*ranks, *nodes, *node, *transport, *listen, *peersFile, *coordAddr); err != nil {
		log.Fatal(err)
	}

	spec := temperedlb.WorkloadSpec{
		NumRanks:      *ranks,
		NumTasks:      *tasks,
		LoadedRanks:   *loaded,
		Seed:          *seed,
		HeavyFraction: 0.2,
	}
	switch *placement {
	case "clustered":
		spec.Placement = temperedlb.PlaceClustered
	case "uniform":
		spec.Placement = temperedlb.PlaceUniform
	case "skewed":
		spec.Placement = temperedlb.PlaceSkewed
	default:
		log.Fatalf("unknown placement %q", *placement)
	}
	switch *loads {
	case "unit":
		spec.Loads = temperedlb.LoadUnit
	case "uniform":
		spec.Loads = temperedlb.LoadUniform
	case "exp":
		spec.Loads = temperedlb.LoadExponential
	case "mixture":
		spec.Loads = temperedlb.LoadMixture
	default:
		log.Fatalf("unknown load model %q", *loads)
	}
	a, err := temperedlb.GenerateWorkload(spec)
	if err != nil {
		log.Fatal(err)
	}

	cfg := wire.Config{
		Network: *transport,
		Ranks:   *ranks, Nodes: *nodes, Self: *node,
		Listen: *listen, JobID: *jobID,
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
	log.Printf("listening on %s (%s), hosting ranks [%d,%d) of %d", tr.Addr(), *transport, lo, hi, *ranks)

	var specs []wire.NodeSpec
	if *peersFile != "" {
		specs, err = wire.ParsePeersFile(*peersFile, *ranks, *nodes)
	} else {
		self := wire.NodeSpec{Node: *node, Lo: lo, Hi: hi, Addr: tr.Addr()}
		specs, err = wire.Rendezvous("tcp", *coordAddr, self, *timeout)
	}
	if err != nil {
		log.Fatal(err)
	}
	if err := tr.Connect(specs); err != nil {
		log.Fatal(err)
	}
	log.Printf("connected to %d peers", *nodes-1)

	opts := []temperedlb.RuntimeOption{
		temperedlb.WithFanout(*fanout),
		temperedlb.WithTransport(tr),
	}
	if *metricsOut != "" || *serveAddr != "" {
		opts = append(opts, temperedlb.WithMetrics())
	}
	var stream *temperedlb.Stream
	if *serveAddr != "" {
		stream = temperedlb.NewStream(0)
		opts = append(opts, temperedlb.WithStream(stream))
	}
	rt := temperedlb.NewRuntime(*ranks, opts...)
	if *serveAddr != "" {
		srv, bound, err := temperedlb.ServeObservability(*serveAddr, stream, rt.Metrics())
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("serving observability on http://%s (attach with: lbtop -url http://%s)", bound, bound)
	}
	if *faults != "" {
		sp, err := temperedlb.ParseFaultSpec(*faults)
		if err != nil {
			log.Fatal(err)
		}
		if err := rt.SetFaults(sp); err != nil {
			log.Fatal(err)
		}
	}

	lbCfg := temperedlb.Tempered()
	lbCfg.Trials, lbCfg.Iterations = 4, 4
	lbCfg.Seed = *seed
	if *rounds > 0 {
		lbCfg.Rounds = *rounds
	}
	h := temperedlb.RegisterLBHandlers(rt, 1)
	results := make([]temperedlb.DistributedResult, *ranks)
	start := time.Now()
	rt.Run(func(rc *temperedlb.RankContext) {
		loads := map[temperedlb.ObjectID]float64{}
		for _, task := range a.TasksOf(rc.Rank()) {
			id := rc.CreateObject(task.Load) // state: the load itself
			loads[id] = task.Load
		}
		rc.Barrier()
		res, err := temperedlb.RunDistributedLB(rc, h, lbCfg, loads)
		if err != nil {
			log.Fatal(err)
		}
		results[rc.Rank()] = res
	})
	if err := tr.Err(); err != nil {
		log.Fatalf("transport failed: %v", err)
	}

	res := results[lo]
	migs := 0
	for r := lo; r < hi; r++ {
		migs += results[r].Migrations
	}
	st := tr.WireStats()
	fmt.Printf("node            %d of %d, ranks [%d,%d) of %d, %s transport\n", *node, *nodes, lo, hi, *ranks, *transport)
	fmt.Printf("imbalance       %.4f -> %.4f (best trial %d iter %d)\n",
		res.InitialImbalance, res.FinalImbalance, res.BestTrial, res.BestIteration)
	fmt.Printf("migrations      %d objects shipped out by this node's ranks\n", migs)
	fmt.Printf("wire            %d frames / %d bytes out, %d frames / %d bytes in, %d peers, %d redials\n",
		st.FramesOut, st.BytesOut, st.FramesIn, st.BytesIn, st.Peers, st.Redials)
	fmt.Printf("wall clock      %.3fs including rendezvous and drain\n", time.Since(start).Seconds())

	if *resultOut != "" {
		writeExport(*resultOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(res.StripTiming())
		})
		log.Printf("wrote rank %d result to %s", lo, *resultOut)
	}
	if *metricsOut != "" {
		writeExport(*metricsOut, func(w io.Writer) error {
			return temperedlb.WritePrometheus(w, rt.Metrics())
		})
		log.Printf("wrote metrics to %s", *metricsOut)
	}
	if *serveAddr != "" {
		log.Print("run finished; still serving (Ctrl-C to exit)")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
	}
}

// validateGeometry rejects inconsistent job geometry and rendezvous
// flags up front, with errors that name the fix — every one of these
// used to surface as a late failure mid-rendezvous (a panic in
// SplitRanks, a listen error, or a silent hang waiting for a peer set
// that can never agree).
func validateGeometry(ranks, nodes, node int, transport, listen, peersFile, coordAddr string) error {
	if ranks < 1 {
		return fmt.Errorf("-ranks %d: a job needs at least one rank", ranks)
	}
	if nodes < 1 {
		return fmt.Errorf("-nodes %d: a job needs at least one process", nodes)
	}
	if ranks < nodes {
		return fmt.Errorf("-ranks %d < -nodes %d: every node hosts at least one rank, so ranks must be >= nodes", ranks, nodes)
	}
	if node < 0 || node >= nodes {
		return fmt.Errorf("-node %d outside [0,%d); every process needs a distinct index", node, nodes)
	}
	switch transport {
	case "tcp":
	case "unix":
		if listen == "" {
			return fmt.Errorf("-transport unix needs an explicit -listen socket path")
		}
	default:
		return fmt.Errorf("-transport %q: want tcp or unix", transport)
	}
	if peersFile != "" && coordAddr != "" {
		return fmt.Errorf("-peers and -coord are both set; they are competing rendezvous mechanisms, pick one")
	}
	if peersFile == "" && coordAddr == "" {
		return fmt.Errorf("no rendezvous configured: give either -peers <file> (static) or -coord <host:port> (lbcoord)")
	}
	return nil
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
