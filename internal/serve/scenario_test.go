package serve

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"temperedlb/internal/amt"
	"temperedlb/internal/core"
	"temperedlb/internal/lb/tempered"
)

func testSpec(kind Kind) Spec {
	return Spec{Kind: kind, Ranks: 6, Phases: 24, Items: 40, Seed: 7}
}

func TestScenarioDeterministicConstruction(t *testing.T) {
	for _, kind := range []Kind{KindRamp, KindDiurnal, KindBurst, KindChurn} {
		a, err := NewScenario(testSpec(kind))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		b, _ := NewScenario(testSpec(kind))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two constructions differ", kind)
		}
		for i := 0; i < a.NumItems(); i++ {
			for p := 0; p < a.Spec.Phases; p++ {
				if a.Load(i, p) != b.Load(i, p) {
					t.Fatalf("%s: item %d phase %d load differs", kind, i, p)
				}
			}
		}
	}
}

func TestScenarioInvariants(t *testing.T) {
	for _, kind := range []Kind{KindRamp, KindDiurnal, KindBurst, KindChurn} {
		sc, err := NewScenario(testSpec(kind))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		covered := 0
		for r := 0; r < sc.Spec.Ranks; r++ {
			prevStart, prevIdx := -1, -1
			for _, i := range sc.Arrivals(r) {
				it := sc.Item(i)
				if it.Home != r {
					t.Fatalf("%s: item %d in rank %d's arrivals but homed on %d", kind, i, r, it.Home)
				}
				if it.Start < prevStart || (it.Start == prevStart && i <= prevIdx) {
					t.Fatalf("%s: rank %d arrivals out of creation order", kind, r)
				}
				prevStart, prevIdx = it.Start, i
				covered++
			}
		}
		if covered != sc.NumItems() {
			t.Errorf("%s: arrivals cover %d of %d items", kind, covered, sc.NumItems())
		}
		for i := 0; i < sc.NumItems(); i++ {
			it := sc.Item(i)
			if it.Start < 0 || it.End > sc.Spec.Phases || it.Start >= it.End {
				t.Fatalf("%s: item %d has lifetime [%d,%d) outside [0,%d)", kind, i, it.Start, it.End, sc.Spec.Phases)
			}
			for p := 0; p < sc.Spec.Phases; p++ {
				l := sc.Load(i, p)
				if sc.Alive(i, p) && l <= 0 {
					t.Fatalf("%s: item %d alive at %d with load %g", kind, i, p, l)
				}
				if !sc.Alive(i, p) && l != 0 {
					t.Fatalf("%s: item %d dead at %d with load %g", kind, i, p, l)
				}
			}
		}
	}
}

func TestScenarioKindsShapeLoad(t *testing.T) {
	// Each generator must actually produce its advertised time shape.
	ramp, _ := NewScenario(testSpec(KindRamp))
	hotEarly, hotLate := rankLoad(ramp, 0, 0), rankLoad(ramp, 0, ramp.Spec.Phases-1)
	if hotLate <= hotEarly {
		t.Errorf("ramp: hot rank load did not grow: %g -> %g", hotEarly, hotLate)
	}

	burst, _ := NewScenario(testSpec(KindBurst))
	if len(burst.bursts) == 0 {
		t.Fatal("burst: no burst windows")
	}
	w := burst.bursts[0]
	quiet := rankLoad(burst, w.Victim, 0)
	spiked := rankLoad(burst, w.Victim, w.Start)
	if spiked < 2*quiet {
		t.Errorf("burst: victim %d load %g at spike vs %g quiet", w.Victim, spiked, quiet)
	}

	churn, _ := NewScenario(testSpec(KindChurn))
	varies := false
	prev := aliveCount(churn, 0)
	for p := 1; p < churn.Spec.Phases; p++ {
		if c := aliveCount(churn, p); c != prev {
			varies = true
			break
		}
	}
	if !varies {
		t.Error("churn: alive item count constant over the whole run")
	}

	diurnal, _ := NewScenario(testSpec(KindDiurnal))
	lo, hi := rankLoad(diurnal, 0, 0), rankLoad(diurnal, 0, diurnal.period/2)
	if hi <= lo {
		t.Errorf("diurnal: no wave on the hot rank: %g at trough, %g at peak", lo, hi)
	}
}

func TestScenarioRejectsBadSpec(t *testing.T) {
	bad := []Spec{
		{Kind: KindRamp, Ranks: 0, Phases: 10, Items: 10},
		{Kind: KindRamp, Ranks: 4, Phases: 0, Items: 10},
		{Kind: KindRamp, Ranks: 4, Phases: 10, Items: 0},
		{Kind: KindRamp, Ranks: 4, Phases: 10, Items: 10, Hot: 9},
	}
	for i, s := range bad {
		if _, err := NewScenario(s); err == nil {
			t.Errorf("spec %d accepted: %+v", i, s)
		}
	}
}

// rankLoad sums a rank's home items' loads at one phase.
func rankLoad(sc *Scenario, rank, phase int) float64 {
	s := 0.0
	for i := 0; i < sc.NumItems(); i++ {
		if sc.Item(i).Home == rank {
			s += sc.Load(i, phase)
		}
	}
	return s
}

func aliveCount(sc *Scenario, phase int) int {
	n := 0
	for i := 0; i < sc.NumItems(); i++ {
		if sc.Alive(i, phase) {
			n++
		}
	}
	return n
}

// referenceScenario is the construction NewScenario replaced, kept as its
// oracle: a fresh generator per item stream, an append-grown item slice,
// and each rank's arrivals found by scanning every item at every phase.
func referenceScenario(spec Spec) (items []Item, bursts []burstWindow, arrivals [][]int) {
	spec = spec.withDefaults()
	period := max(spec.Phases/4, 8)
	for i := 0; i < spec.Items; i++ {
		rng := core.SeededRNG(spec.Seed, int64(i), 0x5ce)
		it := Item{Start: 0, End: spec.Phases}
		if rng.Float64() < 0.75 {
			it.Home = int(rng.Int63n(int64(spec.Hot)))
		} else {
			it.Home = int(rng.Int63n(int64(spec.Ranks)))
		}
		it.Base = 1 + 4*rng.Float64()
		switch spec.Kind {
		case KindRamp:
			if it.Home < spec.Hot {
				it.Slope = 0.1 + 0.2*rng.Float64()
			}
		case KindDiurnal:
			if it.Home >= spec.Hot {
				it.Offset = period / 2
			}
		case KindChurn:
			it.Start = int(rng.Int63n(int64(3*spec.Phases/4 + 1)))
			life := max(spec.Phases/6+int(rng.Int63n(int64(spec.Phases/3+1))), 1)
			it.End = min(it.Start+life, spec.Phases)
		}
		items = append(items, it)
	}
	if spec.Kind == KindBurst {
		n := max(spec.Phases/12, 1)
		for b := 0; b < n; b++ {
			rng := core.SeededRNG(spec.Seed, int64(b), 0xb1257)
			w := burstWindow{Victim: int(rng.Int63n(int64(spec.Hot))), Mult: 4 + 4*rng.Float64()}
			span := spec.Phases / n
			w.Start = b*span + span/3
			w.End = min(w.Start+2+int(rng.Int63n(3)), spec.Phases)
			bursts = append(bursts, w)
		}
	}
	arrivals = make([][]int, spec.Ranks)
	for p := 0; p < spec.Phases; p++ {
		for i, it := range items {
			if it.Start == p {
				arrivals[it.Home] = append(arrivals[it.Home], i)
			}
		}
	}
	return items, bursts, arrivals
}

// TestScenarioMatchesReferenceConstruction: NewScenario — one reseeded
// generator, a presized item slice, arrivals by counting sort — builds
// the old construction's scenario item for item and arrival for arrival,
// for every kind, and ArrivalsAt is that rank's phase-p arrivals as a
// view that costs no allocation.
func TestScenarioMatchesReferenceConstruction(t *testing.T) {
	for _, kind := range []Kind{KindRamp, KindDiurnal, KindBurst, KindChurn} {
		for _, spec := range []Spec{
			testSpec(kind),
			{Kind: kind, Ranks: 64, Phases: 200, Items: 2048, Seed: 45},
			{Kind: kind, Ranks: 9, Phases: 1, Items: 5, Seed: 3, Hot: 9},
			{Kind: kind, Ranks: 40, Phases: 13, Items: 30, Seed: -2},
		} {
			name := fmt.Sprintf("%s/%d ranks/%d phases/%d items", kind, spec.Ranks, spec.Phases, spec.Items)
			sc, err := NewScenario(spec)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			items, bursts, arrivals := referenceScenario(spec)
			if !reflect.DeepEqual(sc.items, items) {
				t.Errorf("%s: items differ from the reference construction", name)
			}
			if !reflect.DeepEqual(sc.bursts, bursts) {
				t.Errorf("%s: burst windows %v, reference %v", name, sc.bursts, bursts)
			}
			for r := 0; r < spec.Ranks; r++ {
				if got := sc.Arrivals(r); !slices.Equal(got, arrivals[r]) {
					t.Fatalf("%s: rank %d arrivals %v, reference %v", name, r, got, arrivals[r])
				}
				for p := 0; p < spec.Phases; p++ {
					var want []int
					for _, i := range arrivals[r] {
						if items[i].Start == p {
							want = append(want, i)
						}
					}
					if got := sc.ArrivalsAt(r, p); !slices.Equal(got, want) {
						t.Fatalf("%s: rank %d phase %d arrivals %v, reference %v", name, r, p, got, want)
					}
				}
			}
			if a := testing.AllocsPerRun(10, func() { sc.ArrivalsAt(0, spec.Phases/2) }); a != 0 {
				t.Errorf("%s: ArrivalsAt allocates %.0f times", name, a)
			}
		}
	}
}

// scenarioEntries returns how many scenarios the process holds.
func scenarioEntries() int {
	scenarios.Lock()
	defer scenarios.Unlock()
	return len(scenarios.m)
}

// TestServiceRanksShareOneScenario: the 64 ranks of one in-process Run
// read one Scenario, and the process holds none once the Run has
// returned, on the error path too. Every rank's Run is handed the spec
// of seed 1 while the registry already holds, under that spec, the
// scenario of seed 2: the run must then be, on every rank, the run of
// seed 2 — a rank that built its own scenario would work seed 1's items
// and the collectives would not add up to seed 2's log.
func TestServiceRanksShareOneScenario(t *testing.T) {
	lb := core.Tempered()
	lb.Rounds, lb.Trials, lb.Iterations, lb.Seed = 1, 2, 4, 5
	seed1 := Config{
		Scenario: Spec{Kind: KindBurst, Ranks: 64, Phases: 12, Items: 512, Seed: 1},
		Trigger:  TriggerSpec{Family: "forecast"},
		LB:       lb,
	}
	seed2 := seed1
	seed2.Scenario.Seed = 2
	want := stripLocal(runService(t, "memory", 1, seed2)[0])
	if n := scenarioEntries(); n != 0 {
		t.Fatalf("%d scenarios held after the run returned", n)
	}

	planted, err := NewScenario(seed2.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	key := seed1.withDefaults().Scenario
	e := &sharedScenario{refs: 1}
	e.once.Do(func() { e.sc = planted })
	scenarios.Lock()
	scenarios.m[key] = e
	scenarios.Unlock()
	got := runService(t, "memory", 1, seed1)
	for r := range got {
		if !reflect.DeepEqual(stripLocal(got[r]), want) {
			t.Fatalf("rank %d did not run the shared scenario: its result is not seed 2's", r)
		}
	}
	if e.refs != 1 || scenarioEntries() != 1 {
		t.Errorf("after the run: %d references to the planted scenario, %d scenarios held; want 1 and 1", e.refs, scenarioEntries())
	}
	releaseScenario(key)

	// A Run that fails after taking the scenario gives it back.
	mismatched := seed1
	mismatched.Scenario.Ranks = 8
	runRanks(t, "memory", 1, 64, nil, func(rc *amt.Context, h *tempered.Handlers) {
		if _, err := Run(rc, h, mismatched); err == nil {
			t.Errorf("rank %d: an 8-rank scenario ran on 64 ranks", rc.Rank())
		}
	})
	if n := scenarioEntries(); n != 0 {
		t.Errorf("%d scenarios held after every rank's Run failed", n)
	}
}
