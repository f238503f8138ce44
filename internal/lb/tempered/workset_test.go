package tempered

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"temperedlb/internal/amt"
	"temperedlb/internal/core"
)

// mapSetSum is the map-and-sort model of a working set's total: what
// the balancer computed before the set kept its own order.
func mapSetSum(m map[amt.ObjectID]float64) ([]amt.ObjectID, float64) {
	ids := make([]amt.ObjectID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	s := 0.0
	for _, id := range ids {
		s += m[id]
	}
	return ids, s
}

// checkWorkSet reads the set every way the balancer does and holds each
// reading to the model.
func checkWorkSet(t *testing.T, step int, w *workSet, model map[amt.ObjectID]float64) {
	t.Helper()
	ids, sum := mapSetSum(model)
	if got := w.sum(); math.Float64bits(got) != math.Float64bits(sum) {
		t.Fatalf("step %d: sum %v (%#x), model %v (%#x)", step, got, math.Float64bits(got), sum, math.Float64bits(sum))
	}
	if got := w.objects(); !slices.Equal(got, ids) {
		t.Fatalf("step %d: objects %v, model %v", step, got, ids)
	}
	tasks := w.taskList()
	if len(tasks) != len(ids) {
		t.Fatalf("step %d: %d tasks for %d objects", step, len(tasks), len(ids))
	}
	for i, task := range tasks {
		if task.ID != core.TaskID(i) || task.Load != model[ids[i]] {
			t.Fatalf("step %d: task %d = %+v, want id %d load %v", step, i, task, i, model[ids[i]])
		}
	}
}

// TestWorkSetMatchesMapModel drives a working set and a plain map through
// the same random sequence of the balancer's operations — receive a new
// task, cede one (several between reads, as one transfer stage does),
// receive back one ceded earlier (also before any read has folded its
// tombstone away), copy, read — with non-dyadic loads, so a sum taken
// in any order but ascending id shows up in the bits.
func TestWorkSetMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	model := make(map[amt.ObjectID]float64)
	for i := 0; i < 40; i++ {
		model[amt.MakeObjectID(core.Rank(rng.Intn(8)), int64(rng.Intn(1<<20)))] = 1.0/3.0 + float64(rng.Intn(7))/7.0
	}
	w, other := &workSet{}, &workSet{}
	w.load(model)
	checkWorkSet(t, 0, w, model)

	var gone []xferMsg             // ceded and not yet received back
	view := w.taskList()           // the task list cede indexes into
	cededNow := make(map[int]bool) // indexes of view already ceded
	reads := 0
	for step := 1; step <= 4000; step++ {
		switch op := rng.Intn(10); {
		case op < 3: // a task arrives from another rank
			m := xferMsg{Obj: amt.MakeObjectID(core.Rank(rng.Intn(8)), int64(rng.Intn(1<<20))), Load: 1.0/3.0 + float64(rng.Intn(7))/7.0}
			if _, dup := model[m.Obj]; dup || slices.ContainsFunc(gone, func(g xferMsg) bool { return g.Obj == m.Obj }) {
				continue
			}
			w.receive(m)
			model[m.Obj] = m.Load
		case op < 6: // a proposal cedes a task of the current view
			if len(view) == 0 {
				continue
			}
			i := rng.Intn(len(view))
			if cededNow[i] {
				continue
			}
			cededNow[i] = true
			m := w.cede(core.TaskID(i))
			if l, ok := model[m.Obj]; !ok || l != m.Load || m.Load != view[i].Load {
				t.Fatalf("step %d: ceded %+v, model has %v (%v)", step, m, l, ok)
			}
			delete(model, m.Obj)
			gone = append(gone, m)
		case op < 8: // a task ceded earlier comes back
			if len(gone) == 0 {
				continue
			}
			i := rng.Intn(len(gone))
			w.receive(gone[i])
			model[gone[i].Obj] = gone[i].Load
			gone = slices.Delete(gone, i, i+1)
		case op < 9: // a new best: copy, then carry on with the copy
			other.copyFrom(w)
			checkWorkSet(t, step, w, model)
			w, other = other, w
			fallthrough
		default: // read
			checkWorkSet(t, step, w, model)
			view = w.taskList()
			clear(cededNow)
			reads++
		}
	}
	checkWorkSet(t, -1, w, model)
	if reads < 300 || len(model) == 0 {
		t.Fatalf("vacuous walk: %d reads, %d tasks left", reads, len(model))
	}
}

var benchSink float64

// rankLocal is the fixture of BenchmarkRankLocalIteration: a 512-task
// working set and what one refinement iteration does to it between
// messages.
type rankLocal struct {
	set  workSet
	msgs [8]xferMsg
}

func newRankLocal() *rankLocal {
	const nTasks = 512
	loads := make(map[amt.ObjectID]float64, nTasks)
	for i := 0; i < nTasks; i++ {
		loads[amt.MakeObjectID(core.Rank(i%16), int64(i))] = 1.0/3.0 + float64(i%7)/7.0
	}
	r := &rankLocal{}
	r.set.load(loads)
	return r
}

// iteration takes the rank's load for the gossip seed, its load and
// flattened task list for the transfer stage, cedes 8 tasks spread over
// the set, receives 8 — the ceded ones coming back, which keeps the set
// at its size for every iteration — and takes its load again for the
// evaluation reduce.
func (r *rankLocal) iteration(i int) {
	v := &r.set
	benchSink += v.sum()
	load := v.sum()
	tasks := v.taskList()
	for k := range r.msgs {
		r.msgs[k] = v.cede(core.TaskID((i + k*len(tasks)/len(r.msgs)) % len(tasks)))
	}
	for _, m := range r.msgs {
		v.receive(m)
	}
	benchSink += v.sum() + load
}

// BenchmarkRankLocalIteration is what one rank does between messages in
// one refinement iteration, without the messages.
func BenchmarkRankLocalIteration(b *testing.B) {
	r := newRankLocal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.iteration(i)
	}
}

// TestRankLocalIterationAllocatesNothing: once the set's slices have
// grown to their working size, an iteration reuses them.
func TestRankLocalIterationAllocatesNothing(t *testing.T) {
	r := newRankLocal()
	i := 0
	if allocs := testing.AllocsPerRun(200, func() { r.iteration(i); i++ }); allocs != 0 {
		t.Errorf("%v allocations per steady-state iteration, want 0", allocs)
	}
}
