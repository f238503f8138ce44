package amt

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"temperedlb/internal/comm"
	"temperedlb/internal/core"
	"temperedlb/internal/obs"
)

// TestAllReduceVec checks the vector collective against elementwise
// scalar reductions.
func TestAllReduceVec(t *testing.T) {
	const n = 7
	rt := New(n)
	rt.Run(func(rc *Context) {
		r := float64(rc.Rank())
		sum := rc.AllReduceVec([]float64{r, 2 * r, 1}, ReduceSum)
		want := []float64{21, 42, 7} // 0+1+...+6 = 21
		for i := range want {
			if sum[i] != want[i] {
				t.Errorf("sum[%d] = %g, want %g", i, sum[i], want[i])
			}
		}
		min := rc.AllReduceVec([]float64{r, -r}, ReduceMin)
		if min[0] != 0 || min[1] != -6 {
			t.Errorf("min = %v", min)
		}
		max := rc.AllReduceVec([]float64{r}, ReduceMax)
		if max[0] != 6 {
			t.Errorf("max = %v", max)
		}
	})
}

// TestAllReduceMixedMatchesSeparateReduces: fusing sums, maxima and
// minima into one sweep must return, bit for bit, what one collective
// per operator returns — the values are thirds and sevenths, whose sums
// depend on the fold order — and must leave its inputs alone.
func TestAllReduceMixedMatchesSeparateReduces(t *testing.T) {
	const n = 23
	rt := New(n)
	rt.Run(func(rc *Context) {
		r := float64(rc.Rank())
		in := []float64{1 / (3 + r), r / 7, 1 / (3 + r), r / 7}
		ops := []ReduceOp{ReduceSum, ReduceSum, ReduceMax, ReduceMin}
		got := rc.AllReduceMixed(in, ops)
		sums := rc.AllReduceVec(in[:2], ReduceSum)
		want := []float64{sums[0], sums[1],
			rc.AllReduce(in[2], ReduceMax), rc.AllReduce(in[3], ReduceMin)}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("rank %d: mixed[%d] = %v, separate reduce %v", rc.Rank(), i, got[i], want[i])
			}
		}
		if in[0] != 1/(3+r) || ops[2] != ReduceMax {
			t.Errorf("rank %d: inputs mutated: %v %v", rc.Rank(), in, ops)
		}
	})
}

// TestAllReduceVecInputAliasing verifies the collective does not retain
// or mutate the caller's slice.
func TestAllReduceVecInputAliasing(t *testing.T) {
	rt := New(3)
	rt.Run(func(rc *Context) {
		in := []float64{float64(rc.Rank())}
		out := rc.AllReduceVec(in, ReduceSum)
		if in[0] != float64(rc.Rank()) {
			t.Errorf("input mutated to %g", in[0])
		}
		if out[0] != 3 {
			t.Errorf("out = %g, want 3", out[0])
		}
	})
}

// TestRuntimeTracingAndMetrics drives every instrumented runtime path —
// epochs, rank and object handlers, migration, collectives, phases —
// with a recorder attached and checks both the event stream and the
// folded metrics registry.
func TestRuntimeTracingAndMetrics(t *testing.T) {
	const n = 4
	rec := obs.NewRecorder()
	rt := New(n, WithTracer(rec), WithMetrics())
	rt.NameHandler(hPing, "test.ping")
	rt.Register(hPing, func(rc *Context, from core.Rank, data any) {})
	rt.RegisterObject(hObjAdd, func(rc *Context, obj ObjectID, state any, from core.Rank, data any) {
		state.(*counterState).Value += data.(int)
	})

	rt.Run(func(rc *Context) {
		id := rc.CreateObject(&counterState{})
		rc.PhaseBegin()
		rc.RecordWork(id, 1.5)
		rc.PhaseEnd()

		rc.Epoch(func() {
			rc.Send(core.Rank((int(rc.Rank())+1)%n), hPing, 1)
			rc.SendObject(id, hObjAdd, 2)
		})
		rc.Epoch(func() {
			rc.Migrate(id, core.Rank((int(rc.Rank())+1)%n))
		})
		if s := rc.AllReduce(1, ReduceSum); s != n {
			t.Errorf("allreduce = %g", s)
		}
		rc.Barrier()
	})

	events := rec.Events()
	byType := map[obs.EventType]int{}
	ranks := map[int]bool{}
	for _, e := range events {
		byType[e.Type]++
		ranks[e.Rank] = true
	}
	if len(ranks) != n {
		t.Errorf("events cover %d ranks, want %d", len(ranks), n)
	}
	wantCounts := map[obs.EventType]int{
		obs.EvEpochOpen:  2 * n,
		obs.EvEpochClose: 2 * n,
		obs.EvPhaseBegin: n,
		obs.EvPhaseEnd:   n,
		obs.EvMigration:  n,
	}
	for ty, want := range wantCounts {
		if byType[ty] != want {
			t.Errorf("%v events = %d, want %d", ty, byType[ty], want)
		}
	}
	// Handlers ran (ping + object pokes, some possibly via forwards),
	// tokens circulated, and every rank saw the two collectives.
	if byType[obs.EvHandler] < 2*n {
		t.Errorf("handler events = %d, want >= %d", byType[obs.EvHandler], 2*n)
	}
	if byType[obs.EvTokenRound] == 0 {
		t.Error("no token-round events")
	}
	if byType[obs.EvCollective] != 2*n {
		t.Errorf("collective events = %d, want %d", byType[obs.EvCollective], 2*n)
	}
	// Epoch close events carry the wave count and a duration.
	for _, e := range events {
		if e.Type == obs.EvEpochClose && e.Rank == 0 {
			if e.Value < 1 {
				t.Errorf("epoch close wave = %g", e.Value)
			}
			if e.Dur <= 0 {
				t.Errorf("epoch close dur = %v", e.Dur)
			}
		}
	}

	m := rt.Metrics()
	if m == nil {
		t.Fatal("Metrics() = nil after EnableMetrics")
	}
	if got := m.Counter("amt_epochs_total").Value(); got != 2*n {
		t.Errorf("amt_epochs_total = %d, want %d", got, 2*n)
	}
	if got := m.Counter("amt_migrations_total").Value(); got != n {
		t.Errorf("amt_migrations_total = %d, want %d", got, n)
	}
	// A *counterState has no wire codec, so it weighs nothing; sized
	// states are TestMigrationStatsAccounted's.
	if got := m.Counter("amt_migration_bytes_total").Value(); got != 0 {
		t.Errorf("amt_migration_bytes_total = %d for states with no codec", got)
	}
	if m.Counter("amt_handler_invocations_total").Value() != int64(byType[obs.EvHandler]) {
		t.Errorf("handler counter %d != handler events %d",
			m.Counter("amt_handler_invocations_total").Value(), byType[obs.EvHandler])
	}
	// The folded transport counters must agree with the network totals.
	if got := m.Counter("comm_messages_all_total").Value(); got != rt.TotalMessages() {
		t.Errorf("comm_messages_all_total = %d, transport sent %d", got, rt.TotalMessages())
	}
	if got := m.Counter(`comm_messages_total{kind="user"}`).Value(); got != n {
		t.Errorf("user kind messages = %d, want %d", got, n)
	}
	if got := m.Counter(`comm_messages_total{kind="migrate"}`).Value(); got != n {
		t.Errorf("migrate kind messages = %d, want %d", got, n)
	}
	if m.Counter("comm_bytes_all_total").Value() <= 0 {
		t.Error("byte accounting produced no bytes")
	}
}

// TestRuntimeNoTracerUnaffected pins the default path: without options,
// no tracer and no metrics exist and behavior is identical.
func TestRuntimeNoTracerUnaffected(t *testing.T) {
	rt := New(2)
	if rt.Tracer() != nil {
		t.Error("default tracer not nil")
	}
	if rt.Metrics() != nil {
		t.Error("default metrics not nil")
	}
	rt.Register(hPing, func(rc *Context, from core.Rank, data any) {})
	rt.Run(func(rc *Context) {
		if rc.Tracer() != nil || rc.Metrics() != nil {
			t.Error("context sees observability that was never enabled")
		}
		rc.Emit(obs.Event{Type: obs.EvHandler}) // must be a safe no-op
		rc.Epoch(func() {
			if rc.Rank() == 0 {
				rc.Send(1, hPing, nil)
			}
		})
	})
}

// TestChaosInstrumentedJitter reruns the cascading-epochs chaos workload
// with the full observability stack attached and delivery order
// scrambled: the protocols must still converge, and the trace must stay
// structurally sound (epoch opens and closes balance per rank, waves are
// positive, handler totals match the metric counter).
func TestChaosInstrumentedJitter(t *testing.T) {
	const n, rounds, chain = 6, 3, 30
	rec := obs.NewRecorder()
	rt := New(n, WithTracer(rec), WithMetrics())
	if err := rt.SetFaults(comm.FaultSpec{Seed: 0x5eed, DelayMax: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	rt.NameHandler(hCascade, "test.cascade")
	var hops atomic.Int64
	rt.Register(hCascade, func(rc *Context, from core.Rank, data any) {
		k := data.(int)
		hops.Add(1)
		if k > 0 {
			rc.Send((rc.Rank()+1)%core.Rank(rc.NumRanks()), hCascade, k-1)
		}
	})
	rt.Run(func(rc *Context) {
		for round := 0; round < rounds; round++ {
			rc.Epoch(func() {
				if rc.Rank() == 0 {
					rc.Send(1, hCascade, chain)
				}
			})
			if sum := rc.AllReduceVec([]float64{1, float64(rc.Rank())}, ReduceSum)[0]; sum != n {
				t.Errorf("vec allreduce under jitter: %g", sum)
			}
			rc.Barrier()
		}
	})
	if hops.Load() != rounds*(chain+1) {
		t.Errorf("hops = %d, want %d", hops.Load(), rounds*(chain+1))
	}

	open := map[int]int{}
	handlers := 0
	for _, e := range rec.Events() {
		switch e.Type {
		case obs.EvEpochOpen:
			open[e.Rank]++
		case obs.EvEpochClose:
			open[e.Rank]--
			if e.Value < 1 || math.IsNaN(e.Value) {
				t.Errorf("rank %d epoch close wave = %g", e.Rank, e.Value)
			}
		case obs.EvHandler:
			handlers++
			if e.Name != "test.cascade" {
				t.Errorf("handler name = %q", e.Name)
			}
		}
	}
	for r, d := range open {
		if d != 0 {
			t.Errorf("rank %d has %d unclosed epochs in trace", r, d)
		}
	}
	if handlers != rounds*(chain+1) {
		t.Errorf("trace handler events = %d, want %d", handlers, rounds*(chain+1))
	}
	m := rt.Metrics()
	if got := m.Counter("amt_handler_invocations_total").Value(); got != int64(handlers) {
		t.Errorf("handler counter = %d, trace saw %d", got, handlers)
	}
	if got := m.Counter("amt_epochs_total").Value(); got != rounds*n {
		t.Errorf("amt_epochs_total = %d, want %d", got, rounds*n)
	}
}
