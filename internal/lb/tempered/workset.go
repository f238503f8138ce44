package tempered

import (
	"cmp"
	"slices"

	"temperedlb/internal/amt"
	"temperedlb/internal/core"
)

// workSet is one rank's working distribution: the tasks it (virtually)
// holds and their loads, kept in ascending object-id order. Go's map
// iteration order is randomized per run and floating-point addition is
// not associative, so totals must be taken in a fixed order to keep the
// protocol bit-deterministic (matching the topology-fixed combine order
// of the tree collectives). Here that order is an invariant of the set
// rather than a sort before each sum: the input map is sorted once, and
// the two ways a set changes during refinement are folded back into the
// ascending run lazily, at the next read —
//
//   - a task ceded by a transfer proposal leaves a tombstone in the run;
//   - a task received by the lb.transfer handler joins an unsorted tail.
//
// Ids are unique across run and tail: the protocol keeps every task in
// exactly one rank's working set and the runtime delivers each proposal
// exactly once. All methods run as the owning rank: on one goroutine at a
// time (the rank's own, or a sender's while the rank is parked).
type workSet struct {
	// ids and tasks are parallel. After a fold they hold the ascending
	// run with tasks[i] = {ID: i, Load: load of ids[i]} — the dense local
	// ids the transfer stage's proposals name, so the task list handed to
	// it is this slice, not a copy.
	ids   []amt.ObjectID
	tasks []core.Task
	// ceded counts the tombstones (tasks[i].ID == cededTask) left in the
	// run since the last fold.
	ceded int
	// tail holds the tasks received since the last fold, in arrival
	// order — which varies run to run, hence the sort in fold.
	tail []xferMsg
}

// cededTask marks a run entry whose task was proposed away.
const cededTask core.TaskID = -1

// load resets the set to the given distribution. This is the only sort
// of a whole set, once per invocation.
func (w *workSet) load(loads map[amt.ObjectID]float64) {
	w.ids, w.tasks = w.ids[:0], w.tasks[:0]
	w.ceded, w.tail = 0, w.tail[:0]
	for obj := range loads {
		w.ids = append(w.ids, obj)
	}
	slices.Sort(w.ids)
	for i, obj := range w.ids {
		w.tasks = append(w.tasks, core.Task{ID: core.TaskID(i), Load: loads[obj]})
	}
}

// copyFrom makes the set an independent copy of src.
func (w *workSet) copyFrom(src *workSet) {
	src.fold()
	w.ids = append(w.ids[:0], src.ids...)
	w.tasks = append(w.tasks[:0], src.tasks...)
	w.ceded, w.tail = 0, w.tail[:0]
}

// sum totals the set's loads in ascending object-id order.
func (w *workSet) sum() float64 {
	w.fold()
	s := 0.0
	for i := range w.tasks {
		s += w.tasks[i].Load
	}
	return s
}

// taskList returns the set as core tasks with dense local ids, ascending
// by object id. The slice aliases the set: it is valid, and must not be
// modified, until the set next changes; cede takes its task ids.
func (w *workSet) taskList() []core.Task {
	w.fold()
	return w.tasks
}

// objects returns the set's object ids in ascending order, aliasing the
// set like taskList.
func (w *workSet) objects() []amt.ObjectID {
	w.fold()
	return w.ids
}

// cede removes the task with local id i of the last taskList from the
// set and returns the proposal message that carries it away.
func (w *workSet) cede(i core.TaskID) xferMsg {
	m := xferMsg{Obj: w.ids[i], Load: w.tasks[i].Load}
	w.tasks[i].ID = cededTask
	w.ceded++
	return m
}

// receive adds a task proposed to this rank.
func (w *workSet) receive(m xferMsg) {
	w.tail = append(w.tail, m)
}

// fold restores the invariant reads rely on — one ascending run, dense
// local ids, no tombstones, empty tail — in time linear in the run plus
// the sort of what arrived. A task ceded and received back since the
// last fold is dropped as a tombstone and re-enters from the tail.
func (w *workSet) fold() {
	if w.ceded > 0 {
		n := 0
		for r := range w.tasks {
			if w.tasks[r].ID == cededTask {
				continue
			}
			w.ids[n] = w.ids[r]
			w.tasks[n] = core.Task{ID: core.TaskID(n), Load: w.tasks[r].Load}
			n++
		}
		w.ids, w.tasks = w.ids[:n], w.tasks[:n]
		w.ceded = 0
	}
	if len(w.tail) == 0 {
		return
	}
	slices.SortFunc(w.tail, func(a, b xferMsg) int { return cmp.Compare(a.Obj, b.Obj) })
	// Merge from the back, in place: every run entry above the lowest
	// arrival shifts up once; the entries below it stay where they are.
	i, k := len(w.ids)-1, len(w.ids)+len(w.tail)
	w.ids = slices.Grow(w.ids, len(w.tail))[:k]
	w.tasks = slices.Grow(w.tasks, len(w.tail))[:k]
	for j := len(w.tail) - 1; j >= 0; {
		k--
		if i >= 0 && w.ids[i] > w.tail[j].Obj {
			w.ids[k] = w.ids[i]
			w.tasks[k] = core.Task{ID: core.TaskID(k), Load: w.tasks[i].Load}
			i--
		} else {
			w.ids[k] = w.tail[j].Obj
			w.tasks[k] = core.Task{ID: core.TaskID(k), Load: w.tail[j].Load}
			j--
		}
	}
	w.tail = w.tail[:0]
}
