package amt

import (
	"fmt"
	"slices"

	"temperedlb/internal/obs"
)

// phaseState is the per-rank instrumentation of the current application
// phase (§III-B): observed work per local object. The principle of
// persistence lets the balancers use these observations as predictors
// for the next phase. loads is the rank's one phase map, made at the
// first PhaseBegin with room for the rank's objects and cleared at every
// later one.
type phaseState struct {
	active bool
	loads  map[ObjectID]float64
}

// PhaseStats is the instrumentation gathered over one phase on one rank.
type PhaseStats struct {
	// Loads maps each object that did work this phase to its observed
	// (virtual) load. PhaseEnd hands out the rank's own map: it is valid
	// until the rank's next PhaseBegin, which clears it for the next
	// phase, so a caller that keeps the observations past that copies
	// them.
	Loads map[ObjectID]float64
	// Total is the rank's summed task load for the phase — l^p.
	Total float64
}

// MaxTaskLoad returns the largest single object load of the phase.
func (ps PhaseStats) MaxTaskLoad() float64 {
	max := 0.0
	for _, l := range ps.Loads {
		if l > max {
			max = l
		}
	}
	return max
}

// PhaseBegin opens an instrumentation window. Phases must not nest. It
// empties the map the previous PhaseEnd returned as PhaseStats.Loads.
func (rc *Context) PhaseBegin() {
	if rc.phase.active {
		panic("amt: PhaseBegin inside an open phase")
	}
	rc.phase.active = true
	if rc.phase.loads == nil {
		rc.phase.loads = make(map[ObjectID]float64, len(rc.objects))
	} else {
		clear(rc.phase.loads)
	}
	if rc.tr != nil {
		rc.Emit(obs.Event{Type: obs.EvPhaseBegin, Peer: -1, Object: -1})
	}
}

// RecordWork attributes load to a local object during the open phase.
// The load is virtual time: applications declare the cost of the task
// execution they just performed, which keeps runs deterministic. An
// object must be local — work happens where the object lives.
func (rc *Context) RecordWork(id ObjectID, load float64) {
	if !rc.phase.active {
		panic("amt: RecordWork outside a phase")
	}
	if load < 0 {
		panic(fmt.Sprintf("amt: RecordWork with negative load %g", load))
	}
	if _, ok := rc.objects[id]; !ok {
		panic(fmt.Sprintf("amt: RecordWork on non-local object %v", id))
	}
	rc.phase.loads[id] += load
}

// PhaseEnd closes the window and returns the observations. Their Loads
// is the rank's phase map, read-only to the caller and valid until the
// next PhaseBegin.
func (rc *Context) PhaseEnd() PhaseStats {
	if !rc.phase.active {
		panic("amt: PhaseEnd without PhaseBegin")
	}
	rc.phase.active = false
	st := PhaseStats{Loads: rc.phase.loads}
	// Sum in ascending-id order: the total feeds imbalance comparisons on
	// every rank, so its FP combine order must not follow map order. Work
	// is recorded on local objects, so the rank's ordered id list covers
	// the keys — unless an object worked and then migrated out before the
	// phase closed, in which case the keys are sorted the slow way.
	seen := 0
	for _, id := range rc.localIDs {
		if l, ok := st.Loads[id]; ok {
			st.Total += l
			seen++
		}
	}
	if seen != len(st.Loads) {
		ids := make([]ObjectID, 0, len(st.Loads))
		for id := range st.Loads {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		st.Total = 0
		for _, id := range ids {
			st.Total += st.Loads[id]
		}
	}
	if rc.tr != nil {
		rc.Emit(obs.Event{Type: obs.EvPhaseEnd, Peer: -1, Object: -1, Value: st.Total})
	}
	return st
}
