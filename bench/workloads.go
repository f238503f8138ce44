package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"

	"temperedlb"
	"temperedlb/internal/comm/wire"
	"temperedlb/internal/core"
	"temperedlb/internal/obs"
	"temperedlb/internal/workload"
)

// workloadDef is one benchmark workload: what an operation is, how large
// it is, and how many of them a run executes. The sizes are fields so
// the smoke test can shrink a workload; the CLI has no size knob.
type workloadDef struct {
	Name string
	Why  string

	Ranks int
	Unix  bool // two socket nodes joined by unix sockets; otherwise the memory transport

	// Balancer workloads: one op is one collective RunDistributedLB over
	// Tasks tasks placed on the first Loaded ranks (the §V-B mixture).
	Loaded, Tasks int
	Trials, Iters int
	Rounds        int // 0 keeps the paper's k = 10

	// Service workload: one op is one RunService run.
	Service       bool
	Phases, Items int

	// Observed attaches a stream with a draining subscriber and the
	// metrics registry to every measured op, and checks each result
	// against an unobserved op on the same input.
	Observed bool

	// Pool is the number of distinct inputs a run cycles through; 0 gives
	// every op an input of its own. One input per run would make the
	// quality metrics (final imbalance, migrations) and, on the service,
	// the number of fires follow the seed; many inputs make each run's
	// value a sample over inputs.
	Pool int
	// Refs is the number of inputs, from the first, whose ops are compared
	// with a reference op on the same input.
	Refs int
	// MinOps is run even when the time budget is already spent.
	MinOps int
	// Deadline is the longest one op may take before the watchdog kills
	// the run.
	Deadline time.Duration

	// BaseOps untraced and TracedOps traced ops make a traced run.
	BaseOps, TracedOps int

	// MaxFinalImb is the sanity ceiling on an op's final imbalance.
	MaxFinalImb float64
}

var workloads = []*workloadDef{
	{
		Name:  wlA,
		Why:   "the paper's case (10^4 tasks on 16 of 4096 ranks, f=6, k=10) through the real protocol: amt scheduling, comm inboxes, termination waves, core gossip merges; wire, serve, obs idle",
		Ranks: 4096, Loaded: 16, Tasks: 10_000, Trials: 4, Iters: 4,
		MinOps: 2, Deadline: 120 * time.Second,
		BaseOps: 1, TracedOps: 1, MaxFinalImb: 10,
	},
	{
		Name:  wlB,
		Why:   "crosses a socket: 4000 tasks on 8 of 256 ranks over two unix-socket nodes at k=1, so the wire codec, framing and writer queue dominate; a codec win shows here and not on the 4096-rank case",
		Ranks: 256, Unix: true, Loaded: 8, Tasks: 4000, Trials: 4, Iters: 4, Rounds: 1,
		Refs: 8, MinOps: 8, Deadline: 30 * time.Second,
		BaseOps: 3, TracedOps: 3, MaxFinalImb: 5,
	},
	{
		Name:  wlC,
		Why:   "the title scenario: a 200-phase burst service on 64 ranks over unix sockets with the forecast trigger; thousands of tiny latency-bound epochs and collectives, where batching costs latency",
		Ranks: 64, Unix: true, Service: true, Phases: 200, Items: 2048,
		Pool: 4, Refs: 1, MinOps: 4, Deadline: 30 * time.Second,
		BaseOps: 1, TracedOps: 1, MaxFinalImb: 5,
	},
	{
		Name:  wlD,
		Why:   "the operator's view: 4000 tasks on 16 of 1024 ranks with a stream subscriber and metrics attached; the only workload where obs, the per-frame AllGather and byte accounting run",
		Ranks: 1024, Loaded: 16, Tasks: 4000, Trials: 4, Iters: 4, Rounds: 1, Observed: true,
		Refs: 8, MinOps: 8, Deadline: 30 * time.Second,
		BaseOps: 4, TracedOps: 3, MaxFinalImb: 10,
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// input is one generated problem instance. The program under test sees
// only these values, never the benchmark seed itself.
type input struct {
	seed int64
	a    *core.Assignment         // balancer workloads
	svc  temperedlb.ServiceConfig // service workload
	ref  *opResult                // the reference this input's ops are compared against
}

// input generates input i of a run. Input i of seed s is the same on
// every run and differs from every input of another seed.
func (w *workloadDef) input(seed int64, i int) (*input, error) {
	in := &input{seed: seed*100_000 + int64(i)}
	if w.Service {
		ts, err := temperedlb.ParseTrigger("forecast")
		if err != nil {
			return nil, err
		}
		in.svc = temperedlb.ServiceConfig{
			Scenario: temperedlb.ScenarioSpec{
				Kind: temperedlb.ScenarioBurst, Ranks: w.Ranks,
				Phases: w.Phases, Items: w.Items, Seed: in.seed,
			},
			Trigger: ts,
			LBCost:  20,
		}
		return in, nil
	}
	spec := workload.VBCase(in.seed)
	spec.NumRanks, spec.LoadedRanks, spec.NumTasks = w.Ranks, w.Loaded, w.Tasks
	a, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	in.a = a
	return in, nil
}

// lbConfig is the balancer configuration of one op.
func (w *workloadDef) lbConfig(in *input, warmup bool) core.Config {
	cfg := temperedlb.Tempered()
	cfg.Trials, cfg.Iterations = w.Trials, w.Iters
	if warmup {
		cfg.Trials, cfg.Iterations = 1, 1
	}
	if w.Rounds > 0 {
		cfg.Rounds = w.Rounds
	}
	cfg.Seed = in.seed
	return cfg
}

// phases is the length of one service op; a warm-up runs a tenth of it.
func (w *workloadDef) phases(at attach) int {
	if at.warmup {
		return (w.Phases + 9) / 10
	}
	return w.Phases
}

// attach says what rides along with one op.
type attach struct {
	warmup    bool
	setupOnly bool        // stop at the opening of the timed window: a set-up sample
	memory    bool        // run on the memory transport whatever the workload says
	stream    bool        // stream + draining subscriber + metrics: what `-serve` attaches
	tracer    *foldTracer // folding tracer + metrics on every runtime
	faults    string      // transport fault spec (the reliable-layer probe)
}

// placedObj is one object as found on a rank after the op: its id and
// the state it carries (the task load, or the service item index).
type placedObj struct {
	id    temperedlb.ObjectID
	state float64
}

// opResult is everything one op produced: the timings of its window and
// the outputs the checks look at.
type opResult struct {
	setupS, wallS, cpuS, allocMB float64
	msgs                         int64

	dist       temperedlb.DistributedResult // rank 0's result, balancer ops
	svc        temperedlb.ServiceResult     // rank 0's result with migrations summed, service ops
	svcLog     []byte
	migrations int
	frames     int

	created [][]placedObj // per rank, before the op (balancer ops)
	placed  [][]placedObj // per rank, after the op
	perRank []temperedlb.DistributedResult

	counters layerCounters
}

// layerCounters are the transport, wire and recovery counters of one
// op, summed over its runtimes.
type layerCounters struct {
	kind     map[string]int64 // comm_messages_total by kind label
	bytes    int64
	wire     temperedlb.WireStats
	retries  int64
	dupDrops int64
}

// window is the timed part of an op: opened by rank 0 when the
// post-creation barrier releases it, closed by the last rank to return.
// Everything before it is set-up.
type window struct {
	t0, t1         time.Time
	cpu0, cpu1     float64
	alloc0, alloc1 uint64
	remaining      atomic.Int32
}

func (w *window) open() { w.t0, w.cpu0, w.alloc0 = time.Now(), cpuSeconds(), allocBytes() }

func (w *window) rankDone() {
	if w.remaining.Add(-1) == 0 {
		w.t1, w.cpu1, w.alloc1 = time.Now(), cpuSeconds(), allocBytes()
	}
}

// cpuSeconds is the process's user plus system time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// allocBytes is the cumulative heap allocation so far, read without
// stopping the world so it can be taken at the window's edge.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runOp executes one op on fresh runtimes and returns what it measured
// and produced. An error means the op itself failed; output checks are
// the caller's.
func (w *workloadDef) runOp(in *input, at attach, jobID uint64) (*opResult, error) {
	runtime.GC() // the previous op's garbage is not this op's cost
	n := w.Ranks
	res := &opResult{}
	opStart := time.Now()

	var opts []temperedlb.RuntimeOption
	if at.stream || at.tracer != nil {
		opts = append(opts, temperedlb.WithMetrics())
	}
	if at.tracer != nil {
		opts = append(opts, temperedlb.WithTracer(at.tracer))
	}
	// Observability attaches to the runtime that hosts rank 0, which
	// publishes the frames.
	var stream *temperedlb.Stream
	options := func(node int, o ...temperedlb.RuntimeOption) []temperedlb.RuntimeOption {
		o = append(o, opts...)
		if node == 0 && stream != nil {
			o = append(o, temperedlb.WithStream(stream))
		}
		return o
	}
	if at.stream {
		stream = temperedlb.NewStream(0)
		sub := stream.Subscribe(64)
		stop, stopped := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(stopped)
			for {
				select {
				case <-sub.Frames():
				case <-stop:
					stream.Unsubscribe(sub)
					return
				}
			}
		}()
		defer func() {
			close(stop)
			<-stopped
		}()
	}

	var rts []*temperedlb.Runtime
	var cluster *wire.Cluster
	if w.Unix && !at.memory {
		var err error
		cluster, err = wire.NewCluster("unix", n, 2, jobID)
		if err != nil {
			return nil, fmt.Errorf("socket cluster: %w", err)
		}
		defer cluster.Close()
		for i, tr := range cluster.Transports {
			rts = append(rts, temperedlb.NewRuntime(n, options(i, temperedlb.WithTransport(tr))...))
		}
	} else {
		rts = []*temperedlb.Runtime{temperedlb.NewRuntime(n, options(0)...)}
	}
	if at.faults != "" {
		sp, err := temperedlb.ParseFaultSpec(at.faults)
		if err != nil {
			return nil, err
		}
		for _, rt := range rts {
			if err := rt.SetFaults(sp); err != nil {
				return nil, err
			}
		}
	}

	// prepare runs on every rank before the barrier and returns the rank's
	// share of the op, which runs inside the timed window.
	var prepare func(rc *temperedlb.RankContext, h *temperedlb.LBHandlers) func() error
	var svcs []temperedlb.ServiceResult
	svcCfg := in.svc
	svcCfg.Scenario.Phases = w.phases(at)
	if w.Service {
		svcs = make([]temperedlb.ServiceResult, n)
		prepare = func(rc *temperedlb.RankContext, h *temperedlb.LBHandlers) func() error {
			return func() (err error) {
				svcs[rc.Rank()], err = temperedlb.RunService(rc, h, svcCfg)
				return err
			}
		}
	} else {
		cfg := w.lbConfig(in, at.warmup)
		res.perRank = make([]temperedlb.DistributedResult, n)
		res.created = make([][]placedObj, n)
		prepare = func(rc *temperedlb.RankContext, h *temperedlb.LBHandlers) func() error {
			r := rc.Rank()
			loads := map[temperedlb.ObjectID]float64{}
			for _, task := range in.a.TasksOf(r) {
				id := rc.CreateObject(task.Load) // state: the load itself
				loads[id] = task.Load
				res.created[r] = append(res.created[r], placedObj{id, task.Load})
			}
			return func() (err error) {
				res.perRank[r], err = temperedlb.RunDistributedLB(rc, h, cfg, loads)
				return err
			}
		}
	}

	var win window
	win.remaining.Store(int32(n))
	errs := make([]error, n)
	res.placed = make([][]placedObj, n)
	rankMain := func(h *temperedlb.LBHandlers) func(rc *temperedlb.RankContext) {
		return func(rc *temperedlb.RankContext) {
			r := rc.Rank()
			work := prepare(rc, h)
			rc.Barrier()
			if r == 0 {
				win.open()
			}
			if !at.setupOnly {
				errs[r] = work()
			}
			win.rankDone()
			for _, id := range rc.LocalObjects() {
				st, _ := rc.ObjectState(id)
				res.placed[r] = append(res.placed[r], placedObj{id, st.(float64)})
			}
		}
	}

	panics := make(chan any, len(rts))
	for _, rt := range rts {
		h := temperedlb.RegisterLBHandlers(rt, 1)
		go func(rt *temperedlb.Runtime, main func(rc *temperedlb.RankContext)) {
			defer func() { panics <- recover() }()
			rt.Run(main)
		}(rt, rankMain(h))
	}
	for range rts {
		if p := <-panics; p != nil {
			return nil, fmt.Errorf("runtime panicked: %v", p)
		}
	}
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}

	res.setupS = win.t0.Sub(opStart).Seconds()
	res.wallS = win.t1.Sub(win.t0).Seconds()
	res.cpuS = win.cpu1 - win.cpu0
	res.allocMB = float64(win.alloc1-win.alloc0) / 1e6
	for _, rt := range rts {
		res.msgs += rt.TotalMessages()
	}
	if w.Service {
		res.svc = svcs[0]
		res.svc.LocalMigrations = 0
		for _, s := range svcs {
			res.svc.LocalMigrations += s.LocalMigrations
		}
		res.migrations = res.svc.LocalMigrations
		var log bytes.Buffer
		if err := temperedlb.WriteServiceLog(&log, svcCfg, res.svc); err != nil {
			return nil, err
		}
		res.svcLog = log.Bytes()
	} else {
		res.dist = res.perRank[0]
		for _, r := range res.perRank {
			res.migrations += r.Migrations
		}
	}
	if stream != nil {
		res.frames = len(stream.Frames())
	}
	if at.tracer != nil {
		res.counters = readCounters(rts, cluster)
	}
	return res, nil
}

// readCounters sums the per-runtime registries and transports of one op.
func readCounters(rts []*temperedlb.Runtime, cluster *wire.Cluster) layerCounters {
	c := layerCounters{kind: map[string]int64{}}
	for _, rt := range rts {
		m := rt.Metrics()
		for _, k := range commKinds {
			c.kind[k] += m.Counter(obs.LabeledName("comm_messages_total", "kind", k)).Value()
		}
		c.kind["all"] += m.Counter("comm_messages_all_total").Value()
		c.bytes += m.Counter("comm_bytes_all_total").Value()
		fs := rt.FaultStats()
		c.retries += fs.Retries
		c.dupDrops += fs.DupDrops
	}
	if cluster != nil {
		for _, tr := range cluster.Transports {
			ws := tr.WireStats()
			c.wire.FramesOut += ws.FramesOut
			c.wire.BytesOut += ws.BytesOut
			c.wire.Redials += ws.Redials
			if ws.QueueHighWater > c.wire.QueueHighWater {
				c.wire.QueueHighWater = ws.QueueHighWater
			}
		}
	}
	return c
}

// commKinds are the labels of the comm_messages_total family.
var commKinds = []string{"user", "object", "migrate", "locupdate", "token", "done", "coll_up", "coll_down", "ack"}
