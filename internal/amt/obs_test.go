package amt

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
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
// epochs, rank and object handlers, migration, collectives, phases — with
// a recorder, the registry and a stream all attached, fault-free and under
// a plan that drops and duplicates, and holds every counted fact to one
// value wherever it is reported: the registry family, the fold of
// ContextStats and Transport.Stats it is stored from, and the count (or
// summed Value) of the recorded events. Rank 0 also scrapes /metrics from
// inside an epoch: a live scrape is the same fold.
func TestRuntimeTracingAndMetrics(t *testing.T) {
	t.Run("fault-free", func(t *testing.T) { testTracingAndMetrics(t, comm.FaultSpec{}) })
	t.Run("faulted", func(t *testing.T) { testTracingAndMetrics(t, lossySpec(42)) })
}

func testTracingAndMetrics(t *testing.T, faults comm.FaultSpec) {
	const n, chain = 4, 25
	rec := obs.NewRecorder()
	rt := New(n, WithTracer(rec), WithMetrics(), WithStream(obs.NewStream(0)))
	if err := rt.SetFaults(faults); err != nil {
		t.Fatal(err)
	}
	rt.NameHandler(hPing, "test.ping")
	rt.Register(hPing, func(rc *Context, from core.Rank, data any) {})
	rt.Register(hCascade, func(rc *Context, from core.Rank, data any) {
		if k := data.(int); k > 0 {
			rc.Send((rc.Rank()+1)%n, hCascade, k-1)
		}
	})
	rt.RegisterObject(hObjAdd, func(rc *Context, obj ObjectID, state any, from core.Rank, data any) {
		state.(*counterState).Value += data.(int)
	})
	srv := httptest.NewServer(obs.NewServeMux(nil, rt.EnableMetrics()))
	defer srv.Close()
	var live string

	rt.Run(func(rc *Context) {
		id := rc.CreateObject(&counterState{})
		sized := rc.CreateObject(2.5) // a state the wire codec can weigh
		rc.PhaseBegin()
		rc.RecordWork(id, 1.5)
		rc.PhaseEnd()

		next := core.Rank((int(rc.Rank()) + 1) % n)
		rc.Epoch(func() {
			rc.Send(next, hPing, 1)
			rc.Send(next, hCascade, chain)
			rc.SendObject(id, hObjAdd, 2)
		})
		rc.Epoch(func() {
			rc.Migrate(id, next)
			rc.Migrate(sized, next)
			if rc.Rank() == 0 {
				resp, err := http.Get(srv.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				body, _ := io.ReadAll(resp.Body)
				live = string(body)
			}
		})
		if s := rc.AllReduce(1, ReduceSum); s != n {
			t.Errorf("allreduce = %g", s)
		}
		rc.Barrier()
	})

	// The scrape taken inside the second epoch already had the first
	// epoch's transport traffic and rank counts.
	for _, fam := range []string{"comm_messages_all_total", "amt_epochs_total", "amt_handler_invocations_total"} {
		var v int64
		for _, line := range strings.Split(live, "\n") {
			if rest, ok := strings.CutPrefix(line, fam+" "); ok {
				v, _ = strconv.ParseInt(rest, 10, 64)
			}
		}
		if v <= 0 {
			t.Errorf("mid-run scrape: %s = %d, want > 0", fam, v)
		}
	}

	events := rec.Events()
	byType := map[obs.EventType]int{}
	sumValue := map[obs.EventType]float64{}
	migrationBytes := 0
	ranks := map[int]bool{}
	for _, e := range events {
		byType[e.Type]++
		sumValue[e.Type] += e.Value
		ranks[e.Rank] = true
		if e.Type == obs.EvMigration {
			migrationBytes += e.Bytes
		}
		// Epoch close events carry the wave count and a duration.
		if e.Type == obs.EvEpochClose && (e.Value < 1 || e.Dur <= 0) {
			t.Errorf("rank %d epoch close: wave %g, dur %v", e.Rank, e.Value, e.Dur)
		}
	}
	if len(ranks) != n {
		t.Errorf("events cover %d ranks, want %d", len(ranks), n)
	}
	for ty, want := range map[obs.EventType]int{
		obs.EvEpochOpen:  2 * n,
		obs.EvEpochClose: 2 * n,
		obs.EvPhaseBegin: n,
		obs.EvPhaseEnd:   n,
		obs.EvMigration:  2 * n,
		obs.EvCollective: 2 * n,
	} {
		if byType[ty] != want {
			t.Errorf("%v events = %d, want %d", ty, byType[ty], want)
		}
	}
	if byType[obs.EvTokenRound] == 0 {
		t.Error("no token-round events")
	}

	m := rt.Metrics()
	if m == nil {
		t.Fatal("Metrics() = nil after EnableMetrics")
	}
	// One value per fact: registry == fold == recorded events.
	ns := rt.Stats()
	fromEvents := map[string]int64{
		"amt_handler_invocations_total":  int64(byType[obs.EvHandler]),
		"amt_epochs_total":               int64(byType[obs.EvEpochClose]),
		"termination_token_rounds_total": int64(sumValue[obs.EvEpochClose]),
		"amt_migrations_total":           int64(byType[obs.EvMigration]),
		"amt_migration_bytes_total":      int64(migrationBytes),
		"amt_collectives_total":          int64(byType[obs.EvCollective]),
		"amt_collective_messages_total":  int64(sumValue[obs.EvCollective]),
		"amt_retries_total":              int64(byType[obs.EvRetry]),
		"amt_duplicates_dropped_total":   int64(byType[obs.EvDupDrop]),
		"comm_messages_all_total":        rt.TotalMessages(), // the transport emits no events
		"comm_bytes_all_total":           ns.Transport.Bytes.Total(),
	}
	for _, f := range nodeFamilies {
		reg, fold := m.Counter(f.name).Value(), f.read(&ns)
		ev, ok := fromEvents[f.name]
		if !ok {
			t.Fatalf("%s: nothing to hold it to", f.name)
		}
		if reg != fold || reg != ev {
			t.Errorf("%s: registry %d, fold %d, recorded events %d", f.name, reg, fold, ev)
		}
	}
	// A *counterState has no wire codec and weighs nothing; the float64
	// states weigh 10 bytes each (TestMigrationStatsAccounted has more).
	if got := m.Counter("amt_migration_bytes_total").Value(); got != 10*n {
		t.Errorf("amt_migration_bytes_total = %d, want %d", got, 10*n)
	}
	for _, f := range kindFamilies {
		counts := f.of(&ns.Transport)
		for k, name := range kindNames {
			if got := m.Counter(obs.LabeledName(f.name, "kind", name)).Value(); got != counts[k] {
				t.Errorf("%s{kind=%q} = %d, Transport.Stats has %d", f.name, name, got, counts[k])
			}
		}
	}
	if m.Counter("comm_bytes_all_total").Value() <= 0 {
		t.Error("byte accounting produced no bytes")
	}
	// FaultStats is the same fold: its four numbers are the registry's.
	overKinds := func(family string) (total int64) {
		for _, name := range kindNames {
			total += m.Counter(obs.LabeledName(family, "kind", name)).Value()
		}
		return total
	}
	if got, want := rt.FaultStats(), (FaultStats{
		Dropped:    overKinds("comm_dropped_total"),
		Duplicated: overKinds("comm_duplicated_total"),
		Retries:    m.Counter("amt_retries_total").Value(),
		DupDrops:   m.Counter("amt_duplicates_dropped_total").Value(),
	}); got != want {
		t.Errorf("FaultStats %+v, registry says %+v", got, want)
	}

	if faults.Empty() {
		// What the body sent, exactly: a ping, a cascade of chain+1 hops
		// and an object poke per rank, and two migrations.
		if got := m.Counter(`comm_messages_total{kind="user"}`).Value(); got != n*(chain+2) {
			t.Errorf("user kind messages = %d, want %d", got, n*(chain+2))
		}
		if got := m.Counter(`comm_messages_total{kind="migrate"}`).Value(); got != 2*n {
			t.Errorf("migrate kind messages = %d, want %d", got, 2*n)
		}
		if got := m.Counter("amt_handler_invocations_total").Value(); got != n*(chain+3) {
			t.Errorf("handler invocations = %d, want %d", got, n*(chain+3))
		}
		if st := rt.FaultStats(); st != (FaultStats{}) {
			t.Errorf("fault-free run: %+v", st)
		}
	} else if st := rt.FaultStats(); st.Dropped == 0 || st.Duplicated == 0 || st.Retries == 0 || st.DupDrops == 0 {
		t.Errorf("expected a lossy run, got %+v", st)
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

// TestRunSizesPayloadsIffRead: Run switches on byte accounting exactly
// when metrics or a stream will read the totals, whatever order the
// setters ran in — a stream attached and detached again leaves the sends
// unsized.
func TestRunSizesPayloadsIffRead(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(rt *Runtime)
		sized bool
	}{
		{"nothing attached", func(rt *Runtime) {}, false},
		{"metrics", func(rt *Runtime) { rt.EnableMetrics() }, true},
		{"stream", func(rt *Runtime) { rt.SetStream(obs.NewStream(0)) }, true},
		{"stream detached", func(rt *Runtime) { rt.SetStream(obs.NewStream(0)); rt.SetStream(nil) }, false},
	} {
		rt := New(2)
		tc.setup(rt)
		rt.Register(hPing, func(rc *Context, from core.Rank, data any) {})
		rt.Run(func(rc *Context) {
			rc.Epoch(func() {
				if rc.Rank() == 0 {
					rc.Send(1, hPing, 42)
				}
			})
		})
		if got := rt.Stats().Transport.Bytes.Total() > 0; got != tc.sized {
			t.Errorf("%s: payloads sized %v, want %v", tc.name, got, tc.sized)
		}
	}
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

// TestMetricsOnlyTimesEpochsNotMessages: with metrics and a stream on and
// no tracer — what -serve and -metrics attach — the one duration the
// runtime measures is an epoch's. amt_epoch_seconds holds one observation
// per epoch run, the only handler family exported is the invocation count,
// and a borrow reads no clock: lentTime stays zero though ranks were lent.
func TestMetricsOnlyTimesEpochsNotMessages(t *testing.T) {
	const n = 64
	job := launch(t, "memory", n, 1, WithMetrics(), WithStream(obs.NewStream(0)))
	if _, lent := runFanCascade(t, n, job); lent == 0 {
		t.Fatal("no send ran its destination: lend was not exercised")
	}
	rt := job.Runtimes[0]
	var prom bytes.Buffer
	if err := obs.WritePrometheus(&prom, rt.Metrics()); err != nil {
		t.Fatal(err)
	}
	epochs := rt.Stats().Ranks[EpochsRun]
	if want := fmt.Sprintf("amt_epoch_seconds_count %d\n", epochs); epochs == 0 || !strings.Contains(prom.String(), want) {
		t.Errorf("want %q (Σ EpochsRun) in the export", want)
	}
	for _, line := range strings.Split(prom.String(), "\n") {
		name := strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE ")
		if strings.HasPrefix(name, "amt_handler_") && !strings.HasPrefix(name, "amt_handler_invocations_total") {
			t.Errorf("a handler family beside the invocation count is exported: %q", line)
		}
	}
	for i := range rt.ranks {
		if rc := rt.ranks[i].Load(); rc.lentTime != 0 {
			t.Errorf("rank %d: lentTime %v without a tracer: lend read the clock", rc.Rank(), rc.lentTime)
		}
	}
}

// TestScrapesAreMonotoneAndEndAtTheFold: a scrape reads counters that ranks
// on other goroutines are writing as it runs — the transport's striped
// send counters, per-rank stats, borrowed runs included. Scraped from
// another goroutine for the whole run, no total ever goes down, and the
// scrape after Run is Job.Stats() to the count.
func TestScrapesAreMonotoneAndEndAtTheFold(t *testing.T) {
	const n = 64
	job := launch(t, "memory", n, 1, WithMetrics(), WithStream(obs.NewStream(0)))
	rt := job.Runtimes[0]
	read := func(m *obs.Metrics) map[string]int64 {
		got := map[string]int64{}
		for _, f := range nodeFamilies {
			got[f.name] = m.Counter(f.name).Value()
		}
		for _, f := range kindFamilies {
			for _, kind := range kindNames {
				name := obs.LabeledName(f.name, "kind", kind)
				got[name] = m.Counter(name).Value()
			}
		}
		return got
	}
	stop, scrapes := make(chan struct{}), make(chan int)
	go func() {
		var prev map[string]int64
		var prevNS NodeStats
		for i := 0; ; i++ {
			select {
			case <-stop:
				scrapes <- i
				return
			default:
			}
			cur, ns := read(rt.Metrics()), rt.Stats()
			for name, v := range prev {
				if cur[name] < v {
					t.Errorf("scrape %d: %s went down, %d → %d", i, name, v, cur[name])
				}
			}
			for s := range ns.Ranks {
				if ns.Ranks[s] < prevNS.Ranks[s] {
					t.Errorf("scrape %d: Stats().Ranks[%d] went down, %d → %d", i, s, prevNS.Ranks[s], ns.Ranks[s])
				}
			}
			for k := range ns.Transport.Sent {
				if ns.Transport.Sent[k] < prevNS.Transport.Sent[k] || ns.Transport.Bytes[k] < prevNS.Transport.Bytes[k] {
					t.Errorf("scrape %d: kind %d transport counts went down", i, k)
				}
			}
			prev, prevNS = cur, ns
		}
	}()
	_, lent := runFanCascade(t, n, job)
	close(stop)
	t.Logf("%d scrapes during the run", <-scrapes)
	if lent == 0 {
		t.Error("no send ran its destination: the run exercised only woken owners")
	}
	final, ns := read(rt.Metrics()), job.Stats()
	for _, f := range nodeFamilies {
		if final[f.name] != f.read(&ns) {
			t.Errorf("final scrape %s = %d, Job.Stats() %d", f.name, final[f.name], f.read(&ns))
		}
	}
	for _, f := range kindFamilies {
		counts := f.of(&ns.Transport)
		for k, kind := range kindNames {
			if name := obs.LabeledName(f.name, "kind", kind); final[name] != counts[k] {
				t.Errorf("final scrape %s = %d, Job.Stats() %d", name, final[name], counts[k])
			}
		}
	}
}
