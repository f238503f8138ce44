package temperedlb_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"temperedlb"
)

// TestPublicAPIEndToEnd drives the whole curated surface: workload
// generation, every strategy constructor, the engine, the metric
// helpers, and the runtime wrappers.
func TestPublicAPIEndToEnd(t *testing.T) {
	spec := temperedlb.VBWorkload(1)
	spec.NumRanks = 128
	spec.LoadedRanks = 4
	spec.NumTasks = 400
	a, err := temperedlb.GenerateWorkload(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Imbalance() < 5 {
		t.Fatalf("workload not skewed: %g", a.Imbalance())
	}

	strategies := []temperedlb.Strategy{
		temperedlb.NewTemperedLB(),
		temperedlb.NewGrapevineLB(),
		temperedlb.NewGreedyLB(),
		temperedlb.NewHierLB(4),
	}
	for _, s := range strategies {
		plan, err := s.Rebalance(a)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if plan.FinalImbalance > plan.InitialImbalance {
			t.Errorf("%s worsened imbalance", s.Name())
		}
		if s.Name() == "" {
			t.Error("empty strategy name")
		}
	}
}

func TestPublicAPIEngineWithCustomConfig(t *testing.T) {
	cfg := temperedlb.EngineConfig{Config: temperedlb.Tempered()}
	cfg.Order = temperedlb.OrderLightest
	cfg.Trials, cfg.Iterations = 2, 3
	cfg.Criterion = temperedlb.CriterionRelaxed
	cfg.CMF = temperedlb.CMFModified
	eng, err := temperedlb.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := temperedlb.NewAssignment(16)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		a.Add(rng.Float64(), temperedlb.Rank(rng.Intn(2)))
	}
	res, err := eng.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalImbalance >= res.InitialImbalance {
		t.Errorf("no improvement: %+v", res)
	}
}

func TestPublicAPIParseOrdering(t *testing.T) {
	ord, err := temperedlb.ParseOrdering("lightest")
	if err != nil || ord != temperedlb.OrderLightest {
		t.Errorf("ParseOrdering: %v %v", ord, err)
	}
	if _, err := temperedlb.ParseOrdering("nope"); err == nil {
		t.Error("bad ordering accepted")
	}
}

func TestPublicAPIWorkloadModels(t *testing.T) {
	for _, lm := range []struct {
		name string
		m    temperedlb.WorkloadSpec
	}{
		{"uniform", temperedlb.WorkloadSpec{NumRanks: 8, NumTasks: 40, Placement: temperedlb.PlaceUniform, Loads: temperedlb.LoadUniform, Seed: 1}},
		{"skewed-exp", temperedlb.WorkloadSpec{NumRanks: 8, NumTasks: 40, Placement: temperedlb.PlaceSkewed, Loads: temperedlb.LoadExponential, Seed: 2}},
		{"clustered-unit", temperedlb.WorkloadSpec{NumRanks: 8, NumTasks: 40, Placement: temperedlb.PlaceClustered, LoadedRanks: 2, Loads: temperedlb.LoadUnit, Seed: 3}},
		{"mixture", temperedlb.WorkloadSpec{NumRanks: 8, NumTasks: 40, Placement: temperedlb.PlaceClustered, LoadedRanks: 2, Loads: temperedlb.LoadMixture, HeavyFraction: 0.3, Seed: 4}},
	} {
		a, err := temperedlb.GenerateWorkload(lm.m)
		if err != nil {
			t.Errorf("%s: %v", lm.name, err)
			continue
		}
		if a.NumTasks() != 40 {
			t.Errorf("%s: %d tasks", lm.name, a.NumTasks())
		}
	}
}

// TestPublicAPIRuntime exercises the runtime surface: collections,
// phases, the load model, collectives and the distributed balancer.
func TestPublicAPIRuntime(t *testing.T) {
	const hWork temperedlb.HandlerID = 10
	rt := temperedlb.NewRuntime(6)
	lbh := temperedlb.RegisterLBHandlers(rt, 20)
	rt.RegisterObject(hWork, func(rc *temperedlb.RankContext, obj temperedlb.ObjectID, state any, from temperedlb.Rank, data any) {
		// no-op
	})
	var mu sync.Mutex
	finals := map[temperedlb.Rank]float64{}
	rt.Run(func(rc *temperedlb.RankContext) {
		col := rc.CreateCollection(1, 24, func(i int) any { return i })
		model := temperedlb.NewLoadModel(1)
		rc.Barrier()
		// Two phases of uneven work: rank 0's elements cost 10x.
		for phase := 0; phase < 2; phase++ {
			rc.PhaseBegin()
			for _, idx := range col.LocalIndices(rc) {
				w := 1.0
				if rc.Rank() == 0 {
					w = 10
				}
				rc.RecordWork(col.Element(idx), w)
			}
			model.Observe(rc.PhaseEnd())
			rc.Barrier()
		}
		cfg := temperedlb.Tempered()
		cfg.Trials, cfg.Iterations, cfg.Rounds = 2, 3, 3
		loads := map[temperedlb.ObjectID]float64{}
		for _, idx := range col.LocalIndices(rc) {
			loads[col.Element(idx)] = model.Predict(col.Element(idx))
		}
		res, err := temperedlb.RunDistributedLB(rc, lbh, cfg, loads)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		finals[rc.Rank()] = res.FinalImbalance
		mu.Unlock()
		sum := rc.AllReduce(float64(len(col.LocalIndices(rc))), temperedlb.ReduceSum)
		if sum != 24 {
			t.Errorf("collection census %g", sum)
		}
	})
	for r, f := range finals {
		if f >= finals[0]+1e-9 || f <= finals[0]-1e-9 {
			t.Errorf("rank %d disagrees on final I: %g vs %g", r, f, finals[0])
		}
	}
}

// TestPublicAPIObservability exercises the tracing and metrics surface:
// a traced distributed LB run exporting to every format.
func TestPublicAPIObservability(t *testing.T) {
	rec := temperedlb.NewTraceRecorder()
	rt := temperedlb.NewRuntime(8, temperedlb.WithTracer(rec), temperedlb.WithMetrics())
	lbh := temperedlb.RegisterLBHandlers(rt, 20)
	rt.Run(func(rc *temperedlb.RankContext) {
		loads := map[temperedlb.ObjectID]float64{}
		if rc.Rank() == 0 {
			for i := 0; i < 16; i++ {
				id := rc.CreateObject(i)
				loads[id] = 1
			}
		}
		rc.Barrier()
		cfg := temperedlb.Tempered()
		cfg.Trials, cfg.Iterations, cfg.Rounds = 2, 2, 3
		res, err := temperedlb.RunDistributedLB(rc, lbh, cfg, loads)
		if err != nil {
			t.Error(err)
			return
		}
		if rc.Rank() == 0 {
			if len(res.History) != 4 {
				t.Errorf("history rows = %d", len(res.History))
			}
			if res.ElapsedSeconds <= 0 {
				t.Errorf("elapsed = %g", res.ElapsedSeconds)
			}
		}
	})
	if rec.Len() == 0 {
		t.Fatal("no events recorded")
	}
	events := rec.Events()
	var buf bytes.Buffer
	for name, write := range map[string]func() error{
		"chrome": func() error { return temperedlb.WriteChromeTrace(&buf, events) },
		"prom":   func() error { return temperedlb.WritePrometheus(&buf, rt.Metrics()) },
	} {
		buf.Reset()
		if err := write(); err != nil {
			t.Errorf("%s export: %v", name, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s export empty", name)
		}
	}
	if got := rt.Metrics().Counter("amt_epochs_total").Value(); got == 0 {
		t.Error("amt_epochs_total = 0")
	}
}

// TestPublicAPISyncEngineTracer pins EngineConfig.Tracer on the synchronous
// engine: lb.run and lb.iteration events with populated ElapsedSeconds.
func TestPublicAPISyncEngineTracer(t *testing.T) {
	spec := temperedlb.VBWorkload(3)
	spec.NumRanks, spec.LoadedRanks, spec.NumTasks = 64, 2, 200
	a, err := temperedlb.GenerateWorkload(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := temperedlb.NewTraceRecorder()
	cfg := temperedlb.EngineConfig{Config: temperedlb.Tempered()}
	cfg.Trials, cfg.Iterations = 2, 3
	cfg.Tracer = rec
	eng, err := temperedlb.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	iters := 0
	for _, e := range rec.Events() {
		if e.Type == temperedlb.EvIterEnd {
			iters++
		}
	}
	if iters != 6 {
		t.Errorf("lb.iteration end events = %d, want 6", iters)
	}
	for i, h := range res.History {
		if h.ElapsedSeconds <= 0 {
			t.Errorf("history[%d].ElapsedSeconds = %g", i, h.ElapsedSeconds)
		}
	}
}

// TestPublicAPISize gates the number of identifiers the root package
// exports — package-level funcs, types, vars and consts of the non-test
// files, the figure `make loc` prints — at the count it has today, so the
// surface cannot grow unnoticed: a PR that adds to it raises the number
// here and says why.
func TestPublicAPISize(t *testing.T) {
	const max = 130
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	count := func(id *ast.Ident) {
		if id.IsExported() {
			n++
		}
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					count(d.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						count(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							count(id)
						}
					}
				}
			}
		}
	}
	if n > max {
		t.Errorf("package temperedlb exports %d identifiers, more than the %d it is gated at", n, max)
	}
	t.Logf("package temperedlb exports %d identifiers", n)
}

// TestConfigSize gates, the same way, the fields of Config and of
// EngineConfig — two more figures `make loc` prints. Each Config field is
// a knob both drivers of the protocol read
// (TestEveryConfigFieldReachesBothDrivers in internal/lb/tempered has a
// row per field); what only the engine takes goes in EngineConfig, whose
// fields are the embedded Config and the tracer.
func TestConfigSize(t *testing.T) {
	for _, c := range []struct {
		typ reflect.Type
		max int
	}{
		{reflect.TypeOf(temperedlb.Config{}), 12},
		{reflect.TypeOf(temperedlb.EngineConfig{}), 2},
	} {
		if n := c.typ.NumField(); n > c.max {
			t.Errorf("%s has %d fields, more than the %d it is gated at", c.typ.Name(), n, c.max)
		}
	}
}
