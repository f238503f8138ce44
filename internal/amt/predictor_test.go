package amt

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"temperedlb/internal/core"
)

func obsOf(id ObjectID, load float64) PhaseStats {
	return PhaseStats{Loads: map[ObjectID]float64{id: load}, Total: load}
}

func TestLoadModelPurePersistence(t *testing.T) {
	m := NewLoadModel(1)
	id := MakeObjectID(0, 1)
	m.Observe(obsOf(id, 3))
	m.Observe(obsOf(id, 7))
	if got := m.Predict(id); got != 7 {
		t.Errorf("persistence Predict = %g, want 7", got)
	}
}

func TestLoadModelSmoothing(t *testing.T) {
	m := NewLoadModel(0.5)
	id := MakeObjectID(0, 1)
	m.Observe(obsOf(id, 4))
	m.Observe(obsOf(id, 8))
	// 0.5*8 + 0.5*4 = 6.
	if got := m.Predict(id); got != 6 {
		t.Errorf("smoothed Predict = %g, want 6", got)
	}
}

func TestLoadModelConvergesToConstant(t *testing.T) {
	m := NewLoadModel(0.3)
	id := MakeObjectID(0, 1)
	m.Observe(obsOf(id, 0))
	for i := 0; i < 60; i++ {
		m.Observe(obsOf(id, 5))
	}
	if got := m.Predict(id); math.Abs(got-5) > 1e-6 {
		t.Errorf("did not converge: %g", got)
	}
}

func TestLoadModelSmoothingReducesNoiseVariance(t *testing.T) {
	// Noisy loads around a constant mean: the smoothed prediction's
	// error variance must undercut pure persistence's.
	rng := rand.New(rand.NewSource(1))
	persist := NewLoadModel(1)
	smooth := NewLoadModel(0.2)
	id := MakeObjectID(0, 1)
	const mean = 10.0
	varP, varS := 0.0, 0.0
	n := 0
	for i := 0; i < 500; i++ {
		load := mean + rng.NormFloat64()
		persist.Observe(obsOf(id, load))
		smooth.Observe(obsOf(id, load))
		if i > 50 { // after warmup
			dp := persist.Predict(id) - mean
			ds := smooth.Predict(id) - mean
			varP += dp * dp
			varS += ds * ds
			n++
		}
	}
	if varS >= varP {
		t.Errorf("smoothing variance %g >= persistence %g", varS/float64(n), varP/float64(n))
	}
}

func TestLoadModelUnknownAndForget(t *testing.T) {
	m := NewLoadModel(0.5)
	id := MakeObjectID(0, 1)
	if m.Predict(id) != 0 {
		t.Error("unknown object should predict 0")
	}
	m.Observe(obsOf(id, 2))
	if m.Len() != 1 {
		t.Error("Len wrong")
	}
	m.Forget(id)
	if m.Predict(id) != 0 || m.Len() != 0 {
		t.Error("Forget did not drop the object")
	}
}

// predictions returns the model's current predictions in a fresh map.
func predictions(m *LoadModel) map[ObjectID]float64 {
	p := make(map[ObjectID]float64)
	m.PredictionsInto(p)
	return p
}

func TestLoadModelPredictionsSnapshot(t *testing.T) {
	m := NewLoadModel(1)
	id := MakeObjectID(0, 1)
	m.Observe(obsOf(id, 2))
	snap := predictions(m)
	m.Observe(obsOf(id, 9))
	if snap[id] != 2 {
		t.Error("snapshot aliased live state")
	}
}

func TestLoadModelBadAlphaPanics(t *testing.T) {
	for _, a := range []float64{0, -0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha %g accepted", a)
				}
			}()
			NewLoadModel(a)
		}()
	}
}

func TestLoadModelBadTrendAndAgePanic(t *testing.T) {
	for _, b := range []float64{-0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("beta %g accepted", b)
				}
			}()
			NewLoadModel(0.5).SetTrend(b)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative max age accepted")
			}
		}()
		NewLoadModel(0.5).SetMaxAge(-1)
	}()
}

// TestLoadModelStalePredictionsSwept is the regression test for the
// phantom-load bug: objects absent from every later phase (completed or
// migrated away without a Forget) must decay and then vanish from
// Predictions, instead of feeding their last observation to the
// balancer forever.
func TestLoadModelStalePredictionsSwept(t *testing.T) {
	m := NewLoadModel(0.5)
	alive := MakeObjectID(0, 1)
	stale := MakeObjectID(0, 2)
	m.Observe(PhaseStats{Loads: map[ObjectID]float64{alive: 4, stale: 8}})
	if m.Predict(stale) != 8 {
		t.Fatalf("setup: stale object predicts %g, want 8", m.Predict(stale))
	}
	// The stale object never works again; the alive one keeps going.
	prev := m.Predict(stale)
	for i := 0; i < DefaultMaxAge; i++ {
		m.Observe(obsOf(alive, 4))
		cur := m.Predict(stale)
		if cur > prev {
			t.Errorf("absent phase %d: stale prediction grew %g -> %g", i+1, prev, cur)
		}
		prev = cur
	}
	if m.Predict(stale) != 0 || m.Len() != 1 {
		t.Errorf("stale object survived %d absent phases: predict %g, len %d",
			DefaultMaxAge, m.Predict(stale), m.Len())
	}
	if _, ok := predictions(m)[stale]; ok {
		t.Error("PredictionsInto still carries the stale object")
	}
	if m.Predict(alive) == 0 {
		t.Error("sweep dropped a live object")
	}
}

// TestLoadModelLegacyNoSweep documents the pre-fix behaviour, kept
// reachable via SetMaxAge(0): absent objects persist forever.
func TestLoadModelLegacyNoSweep(t *testing.T) {
	m := NewLoadModel(0.5)
	m.SetMaxAge(0)
	alive, stale := MakeObjectID(0, 1), MakeObjectID(0, 2)
	m.Observe(PhaseStats{Loads: map[ObjectID]float64{alive: 4, stale: 8}})
	for i := 0; i < 3*DefaultMaxAge; i++ {
		m.Observe(obsOf(alive, 4))
	}
	if m.Predict(stale) != 8 {
		t.Errorf("legacy mode decayed the absent object to %g", m.Predict(stale))
	}
}

func TestLoadModelAbsenceCounterResets(t *testing.T) {
	m := NewLoadModel(1)
	alive, blinker := MakeObjectID(0, 1), MakeObjectID(0, 2)
	for cycle := 0; cycle < 4; cycle++ {
		m.Observe(PhaseStats{Loads: map[ObjectID]float64{alive: 1, blinker: 2}})
		for i := 0; i < DefaultMaxAge-1; i++ { // absent, but never long enough
			m.Observe(obsOf(alive, 1))
		}
		if m.Len() != 2 {
			t.Fatalf("cycle %d: blinker swept after only %d absent phases", cycle, DefaultMaxAge-1)
		}
	}
}

func TestLoadModelImmediateDrop(t *testing.T) {
	m := NewLoadModel(0.5)
	m.SetMaxAge(1)
	alive, once := MakeObjectID(0, 1), MakeObjectID(0, 2)
	m.Observe(PhaseStats{Loads: map[ObjectID]float64{alive: 4, once: 8}})
	m.Observe(obsOf(alive, 4))
	if m.Len() != 1 || m.Predict(once) != 0 {
		t.Errorf("MaxAge 1 kept the absent object: len %d, predict %g", m.Len(), m.Predict(once))
	}
}

// TestLoadModelTrend checks Holt's linear trend against hand-computed
// values: with alpha = beta = 1 the trend is exactly the last delta and
// the k-step forecast extrapolates it linearly.
func TestLoadModelTrend(t *testing.T) {
	m := NewLoadModel(1)
	m.SetTrend(1)
	id := MakeObjectID(0, 1)
	for _, load := range []float64{1, 2, 3} {
		m.Observe(obsOf(id, load))
	}
	if got := m.Trend(id); got != 1 {
		t.Errorf("trend = %g, want 1", got)
	}
	if got := m.Predict(id); got != 4 {
		t.Errorf("one-step forecast = %g, want 4", got)
	}
	if got := m.PredictAhead(id, 3); got != 6 {
		t.Errorf("three-step forecast = %g, want 6", got)
	}
	if got := m.PredictAhead(id, 0); got != 3 {
		t.Errorf("zero-step forecast = %g, want the level 3", got)
	}
}

func TestLoadModelTrendForecastClampsAtZero(t *testing.T) {
	m := NewLoadModel(1)
	m.SetTrend(1)
	id := MakeObjectID(0, 1)
	m.Observe(obsOf(id, 4))
	m.Observe(obsOf(id, 1)) // level 1, trend -3
	if got := m.Predict(id); got != 0 {
		t.Errorf("negative forecast not clamped: %g", got)
	}
	if got := predictions(m)[id]; got != 0 {
		t.Errorf("PredictionsInto not clamped: %g", got)
	}
}

func TestLoadModelTrendDampedBySmoothing(t *testing.T) {
	// With beta < 1 the trend lags a sudden slope change instead of
	// jumping to it.
	m := NewLoadModel(1)
	m.SetTrend(0.5)
	id := MakeObjectID(0, 1)
	m.Observe(obsOf(id, 1))
	m.Observe(obsOf(id, 2)) // delta 1, trend 0.5
	if got := m.Trend(id); got != 0.5 {
		t.Errorf("damped trend = %g, want 0.5", got)
	}
}

// TestLoadModelForgetAfterMigrate models the ownership handoff: the
// sender forgets a migrated object, and the receiver's model starts
// fresh from its own observations with no inherited trend.
func TestLoadModelForgetAfterMigrate(t *testing.T) {
	sender, receiver := NewLoadModel(0.5), NewLoadModel(0.5)
	sender.SetTrend(0.5)
	receiver.SetTrend(0.5)
	id := MakeObjectID(0, 1)
	for _, load := range []float64{2, 4, 6} {
		sender.Observe(obsOf(id, load))
	}
	sender.Forget(id)
	if sender.Len() != 0 {
		t.Fatal("Forget left the object tracked")
	}
	receiver.Observe(obsOf(id, 6))
	if got := receiver.Predict(id); got != 6 {
		t.Errorf("receiver's fresh prediction = %g, want the observation 6", got)
	}
	if got := receiver.Trend(id); got != 0 {
		t.Errorf("receiver inherited a trend: %g", got)
	}
}

// TestLoadModelDeterministicConsumption: the model's outputs must not
// depend on map insertion or iteration order — IDs is sorted, and two
// models fed the same observations through differently-ordered maps
// agree exactly.
func TestLoadModelDeterministicConsumption(t *testing.T) {
	build := func(order []int64) *LoadModel {
		m := NewLoadModel(0.3)
		m.SetTrend(0.2)
		for phase := 0; phase < 5; phase++ {
			loads := make(map[ObjectID]float64)
			for _, seq := range order {
				loads[MakeObjectID(0, seq)] = float64(seq) + float64(phase)/3
			}
			m.Observe(PhaseStats{Loads: loads})
		}
		return m
	}
	a := build([]int64{1, 2, 3, 4, 5})
	b := build([]int64{5, 3, 1, 4, 2})
	ids := a.IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("IDs not ascending: %v", ids)
		}
	}
	pa, pb := predictions(a), predictions(b)
	if len(pa) != len(pb) {
		t.Fatalf("prediction sets differ: %d vs %d", len(pa), len(pb))
	}
	for id, v := range pa {
		if pb[id] != v {
			t.Errorf("object %v: %g vs %g", id, v, pb[id])
		}
	}
}

// trendModel returns a trend-smoothing model fed three phases of n
// objects whose loads differ per object and phase, two of them falling
// steeply enough that their forecasts clamp at zero.
func trendModel(n int) *LoadModel {
	m := NewLoadModel(0.9)
	m.SetTrend(0.9)
	for phase := 0; phase < 3; phase++ {
		loads := make(map[ObjectID]float64)
		for seq := 1; seq <= n; seq++ {
			l := 0.1*float64(seq) + 1/float64(phase+seq)
			if seq <= 2 {
				l = 9 - 4.5*float64(phase)
			}
			loads[MakeObjectID(core.Rank(seq%3), int64(seq))] = l
		}
		m.Observe(PhaseStats{Loads: loads})
	}
	return m
}

// TestLoadModelKeepDropsExactlyTheRejected: Keep forgets the objects its
// predicate rejects and no others, asks once per object in ascending id
// order, and leaves the survivors in that order.
func TestLoadModelKeepDropsExactlyTheRejected(t *testing.T) {
	m := trendModel(12)
	before := m.IDs()
	var asked []ObjectID
	m.Keep(func(id ObjectID) bool {
		asked = append(asked, id)
		return id.seq()%3 != 0
	})
	if !slices.Equal(asked, before) {
		t.Errorf("Keep asked %v, want every id once in ascending order %v", asked, before)
	}
	var want []ObjectID
	for _, id := range before {
		if id.seq()%3 != 0 {
			want = append(want, id)
		}
	}
	if got := m.IDs(); !slices.Equal(got, want) {
		t.Errorf("after Keep: IDs %v, want %v", got, want)
	}
	if m.Len() != len(want) {
		t.Errorf("after Keep: Len %d, want %d", m.Len(), len(want))
	}
	// Forgetting through Keep and through Forget leave the same model.
	f := trendModel(12)
	for _, id := range f.IDs() {
		if id.seq()%3 == 0 {
			f.Forget(id)
		}
	}
	if !maps.Equal(predictions(m), predictions(f)) {
		t.Error("Keep and a Forget loop leave different predictions")
	}
}

// TestLoadModelPredictedTotalIsTheOrderedSum: PredictedTotal is the sum
// of Predict over IDs, taken in that order, bit for bit — the combine
// order the service's collective inputs rely on.
func TestLoadModelPredictedTotalIsTheOrderedSum(t *testing.T) {
	m := trendModel(40)
	m.Keep(func(id ObjectID) bool { return id.seq()%7 != 0 })
	want := 0.0
	for _, id := range m.IDs() {
		want += m.Predict(id)
	}
	if got := m.PredictedTotal(); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("PredictedTotal %v (%#x), the ordered sum %v (%#x)",
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if m.Predict(MakeObjectID(1, 1)) != 0 {
		t.Error("setup: a falling object's forecast is not clamped at zero")
	}
}

// TestLoadModelPredictionsIntoLeavesNoStaleKeys: a map refilled after
// the model lost objects holds exactly the model's current predictions.
func TestLoadModelPredictionsIntoLeavesNoStaleKeys(t *testing.T) {
	m := trendModel(10)
	dst := make(map[ObjectID]float64)
	m.PredictionsInto(dst)
	if len(dst) != 10 {
		t.Fatalf("first fill: %d predictions, want 10", len(dst))
	}
	m.Keep(func(id ObjectID) bool { return id.seq() > 4 })
	m.PredictionsInto(dst)
	if len(dst) != m.Len() {
		t.Errorf("second fill: %d predictions, the model tracks %d", len(dst), m.Len())
	}
	for _, id := range m.IDs() {
		if v, ok := dst[id]; !ok || v != m.Predict(id) {
			t.Errorf("object %v: map holds %v (present %v), Predict %v", id, v, ok, m.Predict(id))
		}
	}
}
