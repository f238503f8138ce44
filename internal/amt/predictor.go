package amt

import (
	"fmt"
	"slices"
)

// LoadModel turns phase observations into next-phase load predictions
// under the principle of persistence (§III-B): computation in previous
// phases predicts computation in future phases. The model smooths
// observations exponentially — Alpha = 1 is pure persistence (last
// observation wins), smaller Alpha averages over more history, damping
// phase-to-phase noise at the cost of lagging genuine drift.
//
// With a trend factor (SetTrend, following the imbalance-anticipation
// approach of Boulmier et al., arXiv:1909.07168) the model becomes
// Holt's double exponential smoothing: each object carries a level and
// a per-phase trend, so steadily growing or shrinking loads are
// extrapolated instead of lagged. PredictAhead forecasts any number of
// phases out along the trend line.
//
// Objects absent from an observed phase (completed, or migrated away
// without a Forget) are decayed — their level folds in a zero
// observation — and dropped entirely after MaxAge consecutive absent
// phases, so PredictionsInto never feeds phantom load to the balancer.
//
// A model consulted every phase for the life of a process allocates
// only as its id set grows: PredictedTotal and Keep read and prune the
// model's own ascending id list in place, and PredictionsInto refills a
// map the caller keeps.
type LoadModel struct {
	alpha  float64
	beta   float64 // trend smoothing factor; 0 disables the trend term
	maxAge int     // consecutive absent phases before an object is dropped

	pred map[ObjectID]*objTrack

	// ids caches the tracked ids in ascending order. idsValid drops when
	// membership changes (a new id, Forget, an age-out) and sortedIDs
	// rebuilds on demand, so phases that only update loads never sort.
	ids      []ObjectID
	idsValid bool
}

// objTrack is one object's smoothing state.
type objTrack struct {
	level  float64
	trend  float64
	absent int // consecutive phases without an observation
}

// DefaultMaxAge is the number of consecutive absent phases after which
// an object is dropped from the model. Long enough to forgive an
// application phase that skips some objects, short enough that
// completed work stops shadowing the balancer within a few phases.
const DefaultMaxAge = 4

// NewLoadModel creates a model with smoothing factor alpha in (0, 1],
// no trend term, and the default absence age-out.
func NewLoadModel(alpha float64) *LoadModel {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("amt: NewLoadModel alpha %g out of (0,1]", alpha))
	}
	return &LoadModel{alpha: alpha, maxAge: DefaultMaxAge, pred: make(map[ObjectID]*objTrack)}
}

// SetTrend enables the second-order (trend) term with smoothing factor
// beta in [0, 1]. Beta 0 restores pure level smoothing.
func (m *LoadModel) SetTrend(beta float64) {
	if beta < 0 || beta > 1 {
		panic(fmt.Sprintf("amt: SetTrend beta %g out of [0,1]", beta))
	}
	m.beta = beta
}

// SetMaxAge sets how many consecutive absent phases an object survives
// before it is dropped. age 0 disables the sweep entirely (the pre-fix
// behaviour: absent objects persist forever); age 1 drops an object the
// first phase it does no work.
func (m *LoadModel) SetMaxAge(age int) {
	if age < 0 {
		panic(fmt.Sprintf("amt: SetMaxAge %d negative", age))
	}
	m.maxAge = age
}

// Observe folds one phase's instrumentation into the predictions.
// Objects never seen before start at their observed load with zero
// trend. Tracked objects absent from stats decay toward zero (a phase
// with no recorded work is a zero observation) and are dropped after
// MaxAge consecutive absent phases.
func (m *LoadModel) Observe(stats PhaseStats) {
	for id, load := range stats.Loads {
		t, ok := m.pred[id]
		if !ok {
			m.pred[id] = &objTrack{level: load}
			m.idsValid = false
			continue
		}
		prev := t.level
		t.level = m.alpha*load + (1-m.alpha)*(t.level+t.trend)
		if m.beta > 0 {
			t.trend = m.beta*(t.level-prev) + (1-m.beta)*t.trend
		}
		t.absent = 0
	}
	if m.maxAge == 0 {
		return
	}
	// Absence sweep over the ordered id list: the per-object updates are
	// independent, the order only keeps any debug hook or future
	// instrumentation deterministic.
	for _, id := range m.sortedIDs() {
		if _, seen := stats.Loads[id]; seen {
			continue
		}
		t := m.pred[id]
		t.absent++
		if t.absent >= m.maxAge {
			delete(m.pred, id)
			m.idsValid = false
			continue
		}
		// Fold a zero observation: the object demonstrably did no work.
		t.level = (1 - m.alpha) * (t.level + t.trend)
		if m.beta > 0 {
			t.trend = (1 - m.beta) * t.trend
		}
	}
}

// Predict returns the expected next-phase load of an object (0 when the
// object is not tracked). Forecasts are clamped at zero: a negative
// trend cannot predict negative work.
func (m *LoadModel) Predict(id ObjectID) float64 { return m.PredictAhead(id, 1) }

// PredictAhead forecasts an object's load k phases out along its trend
// line: level + k·trend, clamped at zero. k <= 0 returns the current
// level.
func (m *LoadModel) PredictAhead(id ObjectID, k int) float64 {
	t, ok := m.pred[id]
	if !ok {
		return 0
	}
	return t.ahead(k)
}

// ahead is PredictAhead for a tracked object.
func (t *objTrack) ahead(k int) float64 {
	if k <= 0 {
		return t.level
	}
	f := t.level + float64(k)*t.trend
	if f < 0 {
		return 0
	}
	return f
}

// Trend returns an object's estimated per-phase load change (0 when the
// object is not tracked or the trend term is disabled).
func (m *LoadModel) Trend(id ObjectID) float64 {
	if t, ok := m.pred[id]; ok {
		return t.trend
	}
	return 0
}

// PredictionsInto clears dst and fills it with every current
// one-phase-ahead prediction — the loads map handed to the distributed
// balancer. A caller that keeps one map and passes it at every
// invocation allocates only when the model tracks more objects than
// ever before.
func (m *LoadModel) PredictionsInto(dst map[ObjectID]float64) {
	clear(dst)
	for id, t := range m.pred {
		dst[id] = t.ahead(1)
	}
}

// PredictedTotal sums the one-phase-ahead predictions in ascending id
// order: a fixed floating-point combine order, so two models holding
// the same predictions return the same bits.
func (m *LoadModel) PredictedTotal() float64 {
	s := 0.0
	for _, id := range m.sortedIDs() {
		s += m.pred[id].ahead(1)
	}
	return s
}

// IDs returns the tracked object ids in ascending order, so callers
// consuming the model iterate deterministically. The slice is the
// caller's own copy: it may reorder it, or Forget while ranging over it.
// A loop that runs every phase wants PredictedTotal or Keep, which do
// not copy.
func (m *LoadModel) IDs() []ObjectID {
	ids := m.sortedIDs()
	return append(make([]ObjectID, 0, len(ids)), ids...)
}

// sortedIDs returns the cached ascending id list, rebuilding it if
// membership changed. The slice is the model's: read it before the next
// rebuild, and do not modify it.
func (m *LoadModel) sortedIDs() []ObjectID {
	if !m.idsValid {
		m.ids = m.ids[:0]
		for id := range m.pred {
			m.ids = append(m.ids, id)
		}
		slices.Sort(m.ids)
		m.idsValid = true
	}
	return m.ids
}

// Forget drops an object (e.g. one migrated away); the receiving rank
// starts fresh from its own observations.
func (m *LoadModel) Forget(id ObjectID) {
	if _, ok := m.pred[id]; ok {
		delete(m.pred, id)
		m.idsValid = false
	}
}

// Keep drops every tracked object for which keep returns false — for
// example Keep(rc.HasObject) after an invocation, so objects migrated
// away are forgotten and their new hosts start fresh. keep is called
// once per object, in ascending id order, and the surviving ids keep
// that order without a re-sort. keep must not call the model.
func (m *LoadModel) Keep(keep func(ObjectID) bool) {
	ids := m.sortedIDs()
	kept := ids[:0]
	for _, id := range ids {
		if keep(id) {
			kept = append(kept, id)
		} else {
			delete(m.pred, id)
		}
	}
	m.ids = kept
}

// Len returns the number of tracked objects.
func (m *LoadModel) Len() int { return len(m.pred) }
