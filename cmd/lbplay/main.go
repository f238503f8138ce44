// Command lbplay runs any of the bundled load balancing strategies on a
// synthetic workload — either through the offline engine or fully
// distributed on the AMT runtime — and prints before/after statistics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"

	"temperedlb"
	"temperedlb/internal/comm/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lbplay: ")
	var (
		strat      = flag.String("strategy", "tempered", "tempered | grapevine | greedy | hier | refine")
		ranks      = flag.Int("ranks", 64, "number of ranks")
		tasks      = flag.Int("tasks", 1000, "number of tasks")
		loaded     = flag.Int("loaded", 4, "initially loaded ranks (clustered placement)")
		placement  = flag.String("placement", "clustered", "clustered | uniform | skewed")
		loads      = flag.String("loads", "uniform", "unit | uniform | exp | mixture")
		order      = flag.String("order", "fewest-migrations", "task traversal ordering (tempered)")
		seed       = flag.Int64("seed", 1, "seed")
		dist       = flag.Bool("distributed", false, "run the gossip balancer on the real AMT runtime")
		transport  = flag.String("transport", "memory", "message substrate for -distributed: memory | unix | tcp (unix/tcp run an in-process socket cluster; see cmd/lbnode for multi-process jobs)")
		nodes      = flag.Int("nodes", 2, "socket-cluster node count for -transport=unix|tcp")
		rounds     = flag.Int("rounds", 0, "gossip rounds per iteration (0 = strategy default; cross-transport diffs need -rounds 1)")
		traceOut   = flag.String("trace", "", "write a Chrome trace_event JSON to this file (open in Perfetto); tempered or -distributed runs")
		metricsOut = flag.String("metrics", "", "write runtime metrics in Prometheus text format to this file (-distributed only)")
		faults     = flag.String("faults", "", "inject transport faults, e.g. \"seed=7,drop=0.01,dup=0.01,delay=5ms,slow=3:2ms\" (-distributed only)")
		fanout     = flag.Int("fanout", 4, "arity of the runtime's collective reduction tree (-distributed only)")
		serveAddr  = flag.String("serve", "", "serve live observability HTTP on this address (NDJSON /stream, /metrics, /debug/pprof/) and keep serving after the run until interrupted (-distributed only)")
		framesOut  = flag.String("frames", "", "write the run's frame ring as NDJSON to this file for lbtop -replay (-distributed only)")
		resultOut  = flag.String("result", "", "write rank 0's protocol-determined DistResult as JSON to this file (timing stripped; diffable across transports and processes)")

		service  = flag.Bool("service", false, "run the online balancer service instead of a one-shot rebalance (see cmd/lbserve for the full tool)")
		scenario = flag.String("scenario", "burst", "service workload stream: ramp | diurnal | burst | churn (-service only)")
		phases   = flag.Int("phases", 40, "service phases (-service only)")
		trigger  = flag.String("trigger", "forecast", "service LB trigger: always | every:K | threshold:H | forecast[:headroom=X] (-service only)")
		lbCost   = flag.Float64("lbcost", 20, "cost of one balancer invocation, in load units (-service only)")
	)
	flag.Parse()

	if *service {
		runService(serviceOptions{
			scenario: *scenario, ranks: *ranks, phases: *phases, items: *tasks, seed: *seed,
			trigger: *trigger, lbCost: *lbCost,
			transport: *transport, nodes: *nodes, fanout: *fanout,
			metricsPath: *metricsOut, framesPath: *framesOut, serveAddr: *serveAddr,
		})
		return
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

	if *dist {
		runDistributed(distOptions{
			a: a, seed: *seed, rounds: *rounds,
			transport: *transport, nodes: *nodes,
			tracePath: *traceOut, metricsPath: *metricsOut,
			faults: *faults, fanout: *fanout,
			serveAddr: *serveAddr, framesPath: *framesOut, resultPath: *resultOut,
		})
		return
	}
	if *metricsOut != "" {
		log.Fatal("-metrics needs the runtime's registry; combine it with -distributed")
	}
	if *faults != "" {
		log.Fatal("-faults injects transport faults; combine it with -distributed (engine strategies take the -faults grammar via lbaf/empire instead)")
	}
	if *serveAddr != "" || *framesOut != "" {
		log.Fatal("-serve and -frames stream the runtime's frames; combine them with -distributed")
	}
	if *transport != "memory" || *resultOut != "" {
		log.Fatal("-transport and -result drive the runtime; combine them with -distributed")
	}

	var rec *temperedlb.TraceRecorder
	if *traceOut != "" {
		rec = temperedlb.NewTraceRecorder()
	}
	var s temperedlb.Strategy
	switch *strat {
	case "tempered":
		cfg := temperedlb.Tempered()
		cfg.Seed = *seed
		ord, err := temperedlb.ParseOrdering(*order)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Order = ord
		if rec != nil {
			cfg.Tracer = rec
		}
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
		log.Fatalf("unknown strategy %q", *strat)
	}

	plan, err := s.Rebalance(a)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("strategy        %s\n", s.Name())
	fmt.Printf("imbalance       %.4f -> %.4f\n", plan.InitialImbalance, plan.FinalImbalance)
	fmt.Printf("migrations      %d tasks, %.2f load units\n", plan.MovedTasks(), plan.MovedLoad)
	fmt.Printf("algorithm cost  %d messages, %d epochs\n", plan.Messages, plan.Epochs)
	if rec != nil {
		events := rec.Events()
		if len(events) == 0 {
			log.Printf("note: strategy %q emits no trace events (only tempered does in engine mode)", *strat)
		}
		writeExport(*traceOut, func(w io.Writer) error {
			return temperedlb.WriteChromeTrace(w, events)
		})
		log.Printf("wrote %d trace events to %s", len(events), *traceOut)
	}
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

// writeResult writes one protocol-determined result as JSON, timing
// stripped so files from different transports and machines diff clean.
func writeResult(path string, res temperedlb.DistributedResult) {
	writeExport(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(res.StripTiming())
	})
	log.Printf("wrote result to %s", path)
}

type distOptions struct {
	a           *temperedlb.Assignment
	seed        int64
	rounds      int
	transport   string
	nodes       int
	tracePath   string
	metricsPath string
	faults      string
	fanout      int
	serveAddr   string
	framesPath  string
	resultPath  string
}

// runDistributed scatters equivalent synthetic objects over a real AMT
// runtime and executes the distributed protocol, optionally with the
// observability stack attached. With -transport=unix or tcp the job
// runs as an in-process socket cluster: one runtime per node, each
// hosting a contiguous rank range behind a partial network, joined by
// real OS sockets — the same topology cmd/lbnode spreads over separate
// processes.
func runDistributed(o distOptions) {
	n := o.a.NumRanks()
	var obsOpts []temperedlb.RuntimeOption
	var rec *temperedlb.TraceRecorder
	if o.tracePath != "" {
		rec = temperedlb.NewTraceRecorder()
		obsOpts = append(obsOpts, temperedlb.WithTracer(rec))
	}
	if o.metricsPath != "" || o.serveAddr != "" {
		obsOpts = append(obsOpts, temperedlb.WithMetrics())
	}
	var stream *temperedlb.Stream
	if o.serveAddr != "" || o.framesPath != "" {
		stream = temperedlb.NewStream(0)
		obsOpts = append(obsOpts, temperedlb.WithStream(stream))
	}

	// Stand up the runtimes: one over everything for the in-memory
	// transport, one per cluster node for the socket transports.
	// Observability (tracer, metrics, stream, serve) attaches to the
	// first runtime; any one node's stream receives the job's frames.
	var runtimes []*temperedlb.Runtime
	var cluster *wire.Cluster
	switch o.transport {
	case "memory":
		runtimes = []*temperedlb.Runtime{temperedlb.NewRuntime(n,
			append([]temperedlb.RuntimeOption{temperedlb.WithFanout(o.fanout)}, obsOpts...)...)}
	case "unix", "tcp":
		if o.nodes < 1 || o.nodes > n {
			log.Fatalf("-nodes %d: need 1 <= nodes <= ranks (%d)", o.nodes, n)
		}
		var err error
		cluster, err = wire.NewCluster(o.transport, n, o.nodes, uint64(o.seed))
		if err != nil {
			log.Fatal(err)
		}
		defer cluster.Close()
		for i, tr := range cluster.Transports {
			nodeOpts := []temperedlb.RuntimeOption{temperedlb.WithFanout(o.fanout), temperedlb.WithTransport(tr)}
			if i == 0 {
				nodeOpts = append(nodeOpts, obsOpts...) // observability on node 0 only
			}
			runtimes = append(runtimes, temperedlb.NewRuntime(n, nodeOpts...))
		}
		log.Printf("socket cluster: %d nodes over %s, %d ranks", o.nodes, o.transport, n)
	default:
		log.Fatalf("unknown transport %q (want memory, unix or tcp)", o.transport)
	}
	rt0 := runtimes[0]

	if o.serveAddr != "" {
		srv, bound, err := temperedlb.ServeObservability(o.serveAddr, stream, rt0.Metrics())
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("serving observability on http://%s (attach with: lbtop -url http://%s)", bound, bound)
	}
	var faultSpec temperedlb.FaultSpec
	if o.faults != "" {
		sp, err := temperedlb.ParseFaultSpec(o.faults)
		if err != nil {
			log.Fatal(err)
		}
		for _, rt := range runtimes {
			if err := rt.SetFaults(sp); err != nil {
				log.Fatal(err)
			}
		}
		faultSpec = sp
	}

	cfg := temperedlb.Tempered()
	cfg.Trials, cfg.Iterations = 4, 4
	cfg.Seed = o.seed
	if o.rounds > 0 {
		cfg.Rounds = o.rounds
	}
	results := make([]temperedlb.DistributedResult, n)
	errs := make([]error, n)
	type hrt struct {
		rt *temperedlb.Runtime
		h  *temperedlb.LBHandlers
	}
	hrts := make([]hrt, len(runtimes))
	for i, rt := range runtimes {
		hrts[i] = hrt{rt: rt, h: temperedlb.RegisterLBHandlers(rt, 1)}
	}
	done := make(chan struct{}, len(hrts))
	for _, p := range hrts {
		go func(rt *temperedlb.Runtime, h *temperedlb.LBHandlers) {
			defer func() { done <- struct{}{} }()
			rt.Run(func(rc *temperedlb.RankContext) {
				loads := map[temperedlb.ObjectID]float64{}
				for _, task := range o.a.TasksOf(rc.Rank()) {
					id := rc.CreateObject(task.Load) // state: the load itself
					loads[id] = task.Load
				}
				rc.Barrier()
				results[rc.Rank()], errs[rc.Rank()] = temperedlb.RunDistributedLB(rc, h, cfg, loads)
			})
		}(p.rt, p.h)
	}
	for range hrts {
		<-done
	}
	if err := jobError(o.transport, cluster, errs); err != nil {
		log.Fatal(err)
	}

	res := results[0]
	migs := 0
	for _, r := range results {
		migs += r.Migrations
	}
	var totalMsgs int64
	for _, rt := range runtimes {
		totalMsgs += rt.TotalMessages()
	}
	switch o.transport {
	case "memory":
		fmt.Printf("strategy        TemperedLB (distributed, %d ranks / %d goroutines)\n", n, n)
	default:
		fmt.Printf("strategy        TemperedLB (distributed, %d ranks over %d %s-socket nodes)\n", n, o.nodes, o.transport)
	}
	fmt.Printf("imbalance       %.4f -> %.4f (best trial %d iter %d)\n",
		res.InitialImbalance, res.FinalImbalance, res.BestTrial, res.BestIteration)
	fmt.Printf("migrations      %d objects actually moved\n", migs)
	fmt.Printf("transport       %d messages total (gossip, transfers, termination, commit)\n", totalMsgs)
	fmt.Printf("collectives     %d-ary reduction tree\n", rt0.Fanout())
	fmt.Printf("protocol cost   %d gossip + %d transfer messages, %.3fs wall clock\n",
		res.GossipMessages, res.TransferMessages, res.ElapsedSeconds)
	if cluster != nil {
		var ws temperedlb.WireStats
		for _, tr := range cluster.Transports {
			st := tr.WireStats()
			ws.FramesOut += st.FramesOut
			ws.BytesOut += st.BytesOut
			ws.Redials += st.Redials
		}
		fmt.Printf("wire            %d frames / %d bytes shipped between nodes, %d redials\n",
			ws.FramesOut, ws.BytesOut, ws.Redials)
	}
	if !faultSpec.Empty() {
		var st temperedlb.FaultStats
		for _, rt := range runtimes {
			s := rt.FaultStats()
			st.Dropped += s.Dropped
			st.Duplicated += s.Duplicated
			st.Retries += s.Retries
			st.DupDrops += s.DupDrops
		}
		fmt.Printf("faults          %s\n", faultSpec)
		fmt.Printf("fault damage    %d dropped, %d duplicated; recovery: %d retries, %d dup discards\n",
			st.Dropped, st.Duplicated, st.Retries, st.DupDrops)
	}
	if o.resultPath != "" {
		writeResult(o.resultPath, res)
	}
	if rec != nil {
		events := rec.Events()
		writeExport(o.tracePath, func(w io.Writer) error {
			return temperedlb.WriteChromeTrace(w, events)
		})
		log.Printf("wrote %d trace events to %s (open in ui.perfetto.dev)", len(events), o.tracePath)
	}
	if o.metricsPath != "" {
		writeExport(o.metricsPath, func(w io.Writer) error {
			return temperedlb.WritePrometheus(w, rt0.Metrics())
		})
		log.Printf("wrote metrics to %s", o.metricsPath)
	}
	if o.framesPath != "" {
		frames := stream.Frames()
		writeExport(o.framesPath, func(w io.Writer) error {
			return temperedlb.WriteSnapshots(w, frames)
		})
		log.Printf("wrote %d frames to %s (replay with: lbtop -replay %s)",
			len(frames), o.framesPath, o.framesPath)
	}
	if o.serveAddr != "" {
		log.Print("run finished; still serving (Ctrl-C to exit)")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
	}
}

// jobError reports why a finished job's results must not be printed: a
// cluster transport that failed (a lost peer, a bad frame) — named first,
// because it is usually what the ranks then tripped over — or the first
// rank's own error. cluster is nil on the memory transport.
func jobError(transport string, cluster *wire.Cluster, errs []error) error {
	if cluster != nil {
		for _, tr := range cluster.Transports {
			if err := tr.Err(); err != nil {
				return fmt.Errorf("%s transport failed: %w", transport, err)
			}
		}
	}
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

type serviceOptions struct {
	scenario    string
	ranks       int
	phases      int
	items       int
	seed        int64
	trigger     string
	lbCost      float64
	transport   string
	nodes       int
	fanout      int
	metricsPath string
	framesPath  string
	serveAddr   string
}

// runService hosts the online balancer service (internal/serve) on the
// chosen transport: scenario phases stream in, the load model forecasts
// the next one, and the trigger decides when the distributed protocol
// is worth invoking. The trigger log printed to stdout is
// rank-identical and byte-stable across transports; cmd/lbserve is the
// dedicated tool with record and tune modes on top of the same engine.
func runService(o serviceOptions) {
	kind, err := temperedlb.ParseScenarioKind(o.scenario)
	if err != nil {
		log.Fatal(err)
	}
	ts, err := temperedlb.ParseTrigger(o.trigger)
	if err != nil {
		log.Fatal(err)
	}
	cfg := temperedlb.ServiceConfig{
		Scenario: temperedlb.ScenarioSpec{
			Kind: kind, Ranks: o.ranks, Phases: o.phases, Items: o.items, Seed: o.seed,
		},
		Trigger: ts,
		LBCost:  o.lbCost,
	}

	var obsOpts []temperedlb.RuntimeOption
	if o.metricsPath != "" || o.serveAddr != "" {
		obsOpts = append(obsOpts, temperedlb.WithMetrics())
	}
	var stream *temperedlb.Stream
	if o.serveAddr != "" || o.framesPath != "" {
		stream = temperedlb.NewStream(0)
		obsOpts = append(obsOpts, temperedlb.WithStream(stream))
	}

	var runtimes []*temperedlb.Runtime
	var cluster *wire.Cluster
	switch o.transport {
	case "memory":
		runtimes = []*temperedlb.Runtime{temperedlb.NewRuntime(o.ranks,
			append([]temperedlb.RuntimeOption{temperedlb.WithFanout(o.fanout)}, obsOpts...)...)}
	case "unix", "tcp":
		if o.nodes < 1 || o.nodes > o.ranks {
			log.Fatalf("-nodes %d: need 1 <= nodes <= ranks (%d)", o.nodes, o.ranks)
		}
		cluster, err = wire.NewCluster(o.transport, o.ranks, o.nodes, uint64(o.seed)+0x5e12e)
		if err != nil {
			log.Fatal(err)
		}
		defer cluster.Close()
		for i, tr := range cluster.Transports {
			nodeOpts := []temperedlb.RuntimeOption{temperedlb.WithFanout(o.fanout), temperedlb.WithTransport(tr)}
			if i == 0 {
				nodeOpts = append(nodeOpts, obsOpts...)
			}
			runtimes = append(runtimes, temperedlb.NewRuntime(o.ranks, nodeOpts...))
		}
		log.Printf("socket cluster: %d nodes over %s, %d ranks", o.nodes, o.transport, o.ranks)
	default:
		log.Fatalf("unknown transport %q (want memory, unix or tcp)", o.transport)
	}
	rt0 := runtimes[0]

	if o.serveAddr != "" {
		srv, bound, err := temperedlb.ServeObservability(o.serveAddr, stream, rt0.Metrics())
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("serving observability on http://%s (attach with: lbtop -url http://%s)", bound, bound)
	}

	results := make([]temperedlb.ServiceResult, o.ranks)
	errs := make([]error, o.ranks)
	done := make(chan struct{}, len(runtimes))
	for _, rt := range runtimes {
		h := temperedlb.RegisterLBHandlers(rt, 1)
		go func(rt *temperedlb.Runtime, h *temperedlb.LBHandlers) {
			defer func() { done <- struct{}{} }()
			rt.Run(func(rc *temperedlb.RankContext) {
				results[rc.Rank()], errs[rc.Rank()] = temperedlb.RunService(rc, h, cfg)
			})
		}(rt, h)
	}
	for range runtimes {
		<-done
	}
	if err := jobError(o.transport, cluster, errs); err != nil {
		log.Fatal(err)
	}

	res := results[0]
	res.LocalMigrations = 0
	for _, r := range results {
		res.LocalMigrations += r.LocalMigrations
	}
	if err := temperedlb.WriteServiceLog(os.Stdout, cfg, res); err != nil {
		log.Fatal(err)
	}
	if o.metricsPath != "" {
		writeExport(o.metricsPath, func(w io.Writer) error {
			return temperedlb.WritePrometheus(w, rt0.Metrics())
		})
		log.Printf("wrote metrics to %s", o.metricsPath)
	}
	if o.framesPath != "" {
		frames := stream.Frames()
		writeExport(o.framesPath, func(w io.Writer) error {
			return temperedlb.WriteSnapshots(w, frames)
		})
		log.Printf("wrote %d frames to %s (replay with: lbtop -replay %s)",
			len(frames), o.framesPath, o.framesPath)
	}
	if o.serveAddr != "" {
		log.Print("service finished; still serving (Ctrl-C to exit)")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
	}
}
