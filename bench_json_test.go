// Machine-readable benchmark emission: `make bench-json` (or BENCH_JSON=1
// go test -run TestWriteBenchJSON) reruns a fixed set of leaf benchmark
// configurations through testing.Benchmark and writes BENCH_lb.json, the
// perf trajectory future PRs diff against. The set deliberately includes
// an engine run with a tracer attached so observability overhead is part
// of the recorded trajectory.
package temperedlb_test

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"temperedlb"
	"temperedlb/internal/amt"
	"temperedlb/internal/analysis"
	"temperedlb/internal/core"
	"temperedlb/internal/lb/tempered"
	"temperedlb/internal/lbaf"
	"temperedlb/internal/obs"
	"temperedlb/internal/serve"
	"temperedlb/internal/workload"
)

// benchRecord is one BENCH_lb.json row.
type benchRecord struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
}

type benchFile struct {
	GoVersion  string        `json:"go_version"`
	GoOS       string        `json:"goos"`
	GoArch     string        `json:"goarch"`
	Benchmarks []benchRecord `json:"benchmarks"`
}

// benchJSONSuite lists the leaf configurations recorded in
// BENCH_lb.json. Keep names stable across PRs: the file is a trajectory,
// and renaming a row severs its history.
func benchJSONSuite() []struct {
	name string
	fn   func(b *testing.B)
} {
	engineSpec := func() *core.Assignment {
		a, err := workload.Generate(benchVBSpec())
		if err != nil {
			panic(err)
		}
		return a
	}
	engineCfg := func() core.EngineConfig {
		cfg := core.EngineConfig{Config: core.Tempered()}
		cfg.Trials, cfg.Iterations = 2, 4
		cfg.Rounds, cfg.Fanout = 6, 4
		return cfg
	}
	runEngine := func(b *testing.B, cfg core.EngineConfig) {
		a := engineSpec()
		eng, err := core.NewEngine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// The first run sizes the engine's buffers; timing it would add
		// their bytes over b.N to every op, and b.N follows the host.
		if _, err := eng.Run(a); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(a); err != nil {
				b.Fatal(err)
			}
		}
	}
	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"table_vb", func(b *testing.B) {
			spec, cfg := benchVBSpec(), benchLBAFConfig()
			for i := 0; i < b.N; i++ {
				if _, err := lbaf.RunIterationTable("§V-B", spec, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"table_vd", func(b *testing.B) {
			spec := benchVBSpec()
			cfg := benchLBAFConfig()
			cfg.Criterion = core.CriterionRelaxed
			cfg.CMF = core.CMFModified
			cfg.RecomputeCMF = true
			for i := 0; i < b.N; i++ {
				if _, err := lbaf.RunIterationTable("§V-D", spec, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"engine_tempered", func(b *testing.B) {
			runEngine(b, engineCfg())
		}},
		{"engine_tempered_traced", func(b *testing.B) {
			cfg := engineCfg()
			cfg.Tracer = obs.NewRecorder()
			runEngine(b, cfg)
		}},
		{"distributed_lb_16ranks", func(b *testing.B) {
			distributedLB16(b, func() []temperedlb.RuntimeOption { return nil })
		}},
		{"distributed_lb_16ranks_observed", func(b *testing.B) {
			distributedLB16(b, func() []temperedlb.RuntimeOption {
				return []temperedlb.RuntimeOption{temperedlb.WithTracer(temperedlb.NewTraceRecorder()), temperedlb.WithMetrics()}
			})
		}},
		{"distributed_lb_16ranks_metrics", func(b *testing.B) {
			// What -serve and -metrics attach: the registry and a stream,
			// no tracer. Between the unobserved row and the traced one.
			distributedLB16(b, func() []temperedlb.RuntimeOption {
				return []temperedlb.RuntimeOption{temperedlb.WithMetrics(), temperedlb.WithStream(temperedlb.NewStream(0))}
			})
		}},
		{"distributed_lb_1024ranks_tree", func(b *testing.B) {
			// Paper-scale collective path: the cost here is dominated by
			// the k-ary tree sweeps and termination detection, which is
			// exactly the trajectory the tree refactor must hold.
			for i := 0; i < b.N; i++ {
				rt := temperedlb.NewRuntime(1024)
				h := temperedlb.RegisterLBHandlers(rt, 1)
				rt.Run(func(rc *temperedlb.RankContext) {
					loads := map[temperedlb.ObjectID]float64{}
					if rc.Rank() < 2 {
						for j := 0; j < 64; j++ {
							loads[rc.CreateObject(j)] = 0.5 + float64(j%7)/7
						}
					}
					rc.Barrier()
					cfg := temperedlb.Tempered()
					cfg.Trials, cfg.Iterations, cfg.Rounds = 1, 2, 2
					if _, err := temperedlb.RunDistributedLB(rc, h, cfg, loads); err != nil {
						b.Error(err)
					}
				})
			}
		}},
		{"serve_trigger_eval_256obj", func(b *testing.B) {
			// One op = the per-phase service overhead a rank pays between
			// running tasks and (maybe) invoking the balancer: fold a
			// 256-object phase observation into the Holt level+trend
			// model, sum next-phase predictions in sorted-id order (the
			// rank's collective contribution), and evaluate the forecast
			// trigger. The collectives themselves are covered by the
			// distributed_lb rows; this row is the serve-layer cost only.
			model := amt.NewLoadModel(0.5)
			model.SetTrend(0.3)
			ids := make([]amt.ObjectID, 256)
			for j := range ids {
				ids[j] = amt.MakeObjectID(core.Rank(j%16), int64(j+1))
			}
			stats := amt.PhaseStats{Loads: make(map[amt.ObjectID]float64, len(ids))}
			trig := &serve.Forecast{}
			op := func(i int) {
				stats.Total = 0
				for j, id := range ids {
					l := 1 + float64((j+i)%7)
					stats.Loads[id] = l
					stats.Total += l
				}
				model.Observe(stats)
				pred := 0.0
				for _, id := range model.IDs() {
					pred += model.Predict(id)
				}
				trig.Decide(serve.Summary{
					Phase: i, Max: stats.Total * 1.2, Avg: stats.Total,
					PredMax: pred * 1.2, PredAvg: pred, LBCost: 1e12,
				})
			}
			// The first observation makes the model's per-object state.
			op(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(i)
			}
		}},
		{"lbvet_full_module", func(b *testing.B) {
			// One op = the full static-analysis gate `make lint` pays on
			// every CI run: one `go list -export` over ./... (export data
			// from the build cache, warm after the first op), a source
			// typecheck of every module package against that export data,
			// and all four analyzers. A fresh loader per op keeps the
			// importer and summary caches cold, like a real invocation.
			for i := 0; i < b.N; i++ {
				ld, err := analysis.NewLoader(".", "./...")
				if err != nil {
					b.Fatal(err)
				}
				pkgs := ld.LoadAll()
				runner := &analysis.Runner{Analyzers: analysis.Analyzers()}
				if diags := runner.Run(pkgs); len(diags) != 0 {
					b.Fatalf("lint findings: %v", diags)
				}
			}
		}},
		{"transfer_stage_4080", func(b *testing.B) {
			// One overloaded rank's transfer stage at the paper's scale,
			// as internal/core's BenchmarkTransferStage/recompute=true
			// runs it: 625 tasks against knowledge of 4080 idle ranks,
			// warm scratch, the CMF raised after every accepted transfer.
			// Re-learning the knowledge between ops is not timed.
			const ranks, known = 4096, 4080
			tasks := make([]core.Task, 625)
			load := 0.0
			for i := range tasks {
				tasks[i] = core.Task{ID: core.TaskID(i), Load: 0.1 + 0.8*float64((i*2654435761)%1000)/1000}
				load += tasks[i].Load
			}
			cfg := core.Tempered()
			know := core.NewKnowledge(ranks)
			rng := core.SeededRNG(1, 2)
			var scr core.TransferScratch
			stage := func() {
				b.StopTimer()
				know.Reset()
				for r := ranks - known; r < ranks; r++ {
					know.Add(core.Rank(r), 0)
				}
				rng.Seed(2) // every op the same stage, so none grows a buffer
				b.StartTimer()
				core.RunTransferScratch(0, tasks, load, load*16/ranks, know, &cfg, rng, nil, &scr)
			}
			// Warm the scratch: two ops, as the task buffers swap roles
			// every pass.
			stage()
			stage()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stage()
			}
		}},
		{"orderings_fewest_migrations_10k", func(b *testing.B) {
			tasks := make([]core.Task, 10_000)
			total := 0.0
			for i := range tasks {
				tasks[i] = core.Task{ID: core.TaskID(i), Load: float64((i*2654435761)%1000) / 100}
				total += tasks[i].Load
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.OrderTasks(tasks, total/400, total, core.OrderFewestMigrations)
			}
		}},
		{"lent_send", func(b *testing.B) {
			// One message lent to a parked rank, as internal/amt's
			// BenchmarkLentSend runs it: rank 0 sends to rank 1, parked in
			// a barrier, and runs its empty handler on its own goroutine —
			// claim, dispatch, the turn's empty RecvBatch, the release.
			// The untimed sends before it wait for rank 1 to park.
			const nop amt.HandlerID = 1
			rt := amt.New(2)
			rt.Register(nop, func(*amt.Context, core.Rank, any) {})
			rt.Run(func(rc *amt.Context) {
				rc.Barrier()
				if rc.Rank() == 0 {
					for rc.Stats[amt.Lent].Load() == 0 {
						rc.Send(1, nop, nil)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						rc.Send(1, nop, nil)
					}
					b.StopTimer()
				}
				rc.Barrier()
			})
		}},
		{"serve_phases_unix", func(b *testing.B) {
			// The north star's service phase over real sockets: workload
			// C's burst service with the forecast trigger, shrunk to 16
			// ranks × 40 phases, on a fresh two-node unix-socket job per
			// op. What a phase costs on the wire path — one frame buffer
			// and decoder per connection, one phase map per rank — is
			// what its B/op and allocs/op gate.
			cfg := serve.Config{
				Scenario: serve.Spec{Kind: serve.KindBurst, Ranks: 16, Phases: 40, Items: 512, Seed: 45},
				Trigger:  serve.TriggerSpec{Family: "forecast", Headroom: 1},
				LBCost:   20,
			}
			for i := 0; i < b.N; i++ {
				job, err := amt.Launch("unix", cfg.Scenario.Ranks, 2, 0x5e12e)
				if err != nil {
					b.Fatal(err)
				}
				err = job.Run(func(rt *amt.Runtime) func(*amt.Context) error {
					h := tempered.RegisterHandlers(rt, 1)
					return func(rc *amt.Context) error {
						_, err := serve.Run(rc, h, cfg)
						return err
					}
				})
				job.Close()
				if err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"allreduce_unix_64x2", func(b *testing.B) {
			// One tree collective over real sockets: a 10-wide mixed
			// reduce on every rank of a 64-rank job split over two
			// unix-socket nodes, the statistics reduce of an iteration of
			// workload C's balancer. The job stands up once, untimed.
			ops := make([]amt.ReduceOp, 10)
			for j := range ops {
				ops[j] = []amt.ReduceOp{amt.ReduceSum, amt.ReduceMax, amt.ReduceMin}[j%3]
			}
			job, err := amt.Launch("unix", 64, 2, 0xa11)
			if err != nil {
				b.Fatal(err)
			}
			defer job.Close()
			err = job.Run(func(*amt.Runtime) func(*amt.Context) error {
				return func(rc *amt.Context) error {
					in := make([]float64, len(ops))
					for j := range in {
						in[j] = float64(int(rc.Rank())*len(in) + j)
					}
					// Untimed reduces size every rank's partial and the
					// connections' frame buffers, so B/op does not follow b.N.
					for i := 0; i < 20; i++ {
						rc.AllReduceMixed(in, ops)
					}
					if rc.Rank() == 0 {
						b.ResetTimer()
					}
					for i := 0; i < b.N; i++ {
						rc.AllReduceMixed(in, ops)
					}
					if rc.Rank() == 0 {
						b.StopTimer()
					}
					return nil
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		}},
		{"gossip_epoch_1024", func(b *testing.B) {
			// One inform epoch of the paper's protocol (f = 6, k = 10)
			// over 1024 in-memory ranks, through the shipped handlers: a
			// one-iteration invocation whose loads, 1 and 2 on alternate
			// ranks at h = 1.5, put no rank above Threshold·ave, so its
			// transfer and commit epochs are empty and the 512
			// underloaded ranks' gossip is the work. The runtime, the
			// handlers and the objects stand up once, untimed, and
			// untimed invocations size every rank's buffers.
			rt := amt.New(1024)
			h := tempered.RegisterHandlers(rt, 1)
			cfg := core.Tempered()
			cfg.Trials, cfg.Iterations, cfg.Threshold = 1, 1, 1.5
			rt.Run(func(rc *amt.Context) {
				loads := map[amt.ObjectID]float64{rc.CreateObject(0): float64(1 + rc.Rank()%2)}
				invoke := func() {
					if _, err := tempered.RunDistributed(rc, h, cfg, loads); err != nil {
						b.Error(err)
					}
				}
				for i := 0; i < 20; i++ {
					invoke()
				}
				if rc.Rank() == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					invoke()
				}
				if rc.Rank() == 0 {
					b.StopTimer()
				}
			})
		}},
		{"allgather_4096", func(b *testing.B) {
			// One all-gather on every rank of a 4096-rank in-memory
			// runtime, the paper's scale: each subtree's range goes up,
			// the root's by-rank vector comes down. The runtime stands up
			// once, untimed.
			amt.New(4096).Run(func(rc *amt.Context) {
				allGathers(b, rc)
			})
		}},
		{"allgather_unix_64x2", func(b *testing.B) {
			// The same gather over real sockets, beside
			// allreduce_unix_64x2: 64 ranks split over two unix-socket
			// nodes, where a range crosses each of the 4 tree edges
			// between them. The job stands up once, untimed.
			job, err := amt.Launch("unix", 64, 2, 0xa11)
			if err != nil {
				b.Fatal(err)
			}
			defer job.Close()
			err = job.Run(func(*amt.Runtime) func(*amt.Context) error {
				return func(rc *amt.Context) error {
					allGathers(b, rc)
					return nil
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		}},
	}
}

// allGathers is one rank's part of an allgather row: untimed gathers
// size every rank's buffers and the connections' frame buffers, so B/op
// does not follow b.N, then b.N timed ones, the timer run by rank 0.
func allGathers(b *testing.B, rc *amt.Context) {
	for i := 0; i < 5; i++ {
		rc.AllGather(float64(rc.Rank()))
	}
	if rc.Rank() == 0 {
		b.ResetTimer()
	}
	for i := 0; i < b.N; i++ {
		rc.AllGather(float64(rc.Rank()))
	}
	if rc.Rank() == 0 {
		b.StopTimer()
	}
}

// distributedLB16 is one op per b.N of the 16-rank rows: a fresh runtime
// with opts() attached, 128 objects on two ranks, one distributed
// invocation.
func distributedLB16(b *testing.B, opts func() []temperedlb.RuntimeOption) {
	for i := 0; i < b.N; i++ {
		rt := temperedlb.NewRuntime(16, opts()...)
		h := temperedlb.RegisterLBHandlers(rt, 1)
		rt.Run(func(rc *temperedlb.RankContext) {
			loads := map[temperedlb.ObjectID]float64{}
			if rc.Rank() < 2 {
				for j := 0; j < 64; j++ {
					loads[rc.CreateObject(j)] = 0.5 + float64(j%7)/7
				}
			}
			rc.Barrier()
			cfg := temperedlb.Tempered()
			cfg.Trials, cfg.Iterations, cfg.Rounds = 2, 3, 4
			if _, err := temperedlb.RunDistributedLB(rc, h, cfg, loads); err != nil {
				b.Error(err)
			}
		})
	}
}

// TestWriteBenchJSON regenerates BENCH_lb.json. Skipped unless BENCH_JSON
// is set: the run takes a while and must not slow down the tier-1 suite.
func TestWriteBenchJSON(t *testing.T) {
	if os.Getenv("BENCH_JSON") == "" {
		t.Skip("set BENCH_JSON=1 (or run `make bench-json`) to regenerate BENCH_lb.json")
	}
	out := benchFile{
		GoVersion: runtime.Version(),
		GoOS:      runtime.GOOS,
		GoArch:    runtime.GOARCH,
	}
	for _, bm := range benchJSONSuite() {
		fn := bm.fn
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		out.Benchmarks = append(out.Benchmarks, benchRecord{
			Name:        bm.name,
			N:           res.N,
			NsPerOp:     res.NsPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
		t.Logf("%-34s %12d ns/op %10d B/op %8d allocs/op (n=%d)",
			bm.name, res.NsPerOp(), res.AllocedBytesPerOp(), res.AllocsPerOp(), res.N)
	}
	f, err := os.Create("BENCH_lb.json")
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
