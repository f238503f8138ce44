package serve

import (
	"math"
	"strings"
	"testing"
)

// sum builds a Summary with the fields the triggers read.
func sum(phase int, max, avg, predMax, predAvg float64, sinceLB int, lbCost float64) Summary {
	return Summary{Phase: phase, Max: max, Avg: avg, PredMax: predMax, PredAvg: predAvg, SinceLB: sinceLB, LBCost: lbCost}
}

func TestEveryKHandTrace(t *testing.T) {
	trig := &EveryK{K: 3}
	// SinceLB as the service maintains it: 0 after an LB, growing while
	// skipping. K=3 fires on the 3rd phase after each invocation.
	want := []bool{false, false, true, false, false, true}
	since := 0
	for p, w := range want {
		d := trig.Decide(sum(p, 10, 5, 10, 5, since, 20))
		if d.Fire != w {
			t.Errorf("phase %d: fire=%v, want %v", p, d.Fire, w)
		}
		if d.Fire {
			since = 0
		} else {
			since++
		}
	}
}

func TestEveryOneIsAlwaysLB(t *testing.T) {
	trig := &EveryK{K: 1}
	for p := 0; p < 5; p++ {
		if !trig.Decide(sum(p, 1, 1, 1, 1, 0, 20)).Fire {
			t.Fatalf("phase %d: every:1 skipped", p)
		}
	}
}

func TestImbalanceThresholdHandTrace(t *testing.T) {
	trig := &ImbalanceThreshold{H: 0.25}
	cases := []struct {
		max, avg float64
		fire     bool
	}{
		{10, 10, false},   // I = 0
		{12, 10, false},   // I = 0.2
		{12.5, 10, false}, // I = 0.25, not strictly above
		{13, 10, true},    // I = 0.3
		{0, 0, false},     // idle system
	}
	for i, c := range cases {
		d := trig.Decide(sum(i, c.max, c.avg, 0, 0, i, 20))
		if d.Fire != c.fire {
			t.Errorf("case %d (max %g avg %g): fire=%v, want %v", i, c.max, c.avg, d.Fire, c.fire)
		}
	}
}

// TestForecastHandTrace follows the rent-to-buy accumulator by hand:
// waste (max−avg) accrues each phase, the forecast next-phase waste is
// added on top, and the trigger fires exactly when the total reaches
// LBCost — then resets.
func TestForecastHandTrace(t *testing.T) {
	trig := &Forecast{}
	const cost = 20.0
	steps := []struct {
		max, avg, predMax, predAvg float64
		fire                       bool
	}{
		// accum 6, next 6: 12 < 20.
		{16, 10, 16, 10, false},
		// accum 12, next 6: 18 < 20.
		{16, 10, 16, 10, false},
		// accum 18, next 6: 24 >= 20 — fire, reset.
		{16, 10, 16, 10, true},
		// accum 6, next 0: 6 < 20 (balanced forecast).
		{16, 10, 10, 10, false},
		// accum 6+16=22 >= 20 — a burst fires immediately.
		{26, 10, 30, 10, true},
	}
	for i, s := range steps {
		d := trig.Decide(sum(i, s.max, s.avg, s.predMax, s.predAvg, i, cost))
		if d.Fire != s.fire {
			t.Errorf("step %d: fire=%v (%s), want %v", i, d.Fire, d.Why, s.fire)
		}
	}
}

func TestForecastPredWasteClamped(t *testing.T) {
	trig := &Forecast{}
	// Predicted max below predicted avg can't subtract from the accum.
	d := trig.Decide(sum(0, 30, 10, 5, 10, 0, 20))
	if !d.Fire {
		t.Errorf("realized waste 20 >= cost 20 must fire even with a negative forecast: %s", d.Why)
	}
}

func TestForecastHeadroom(t *testing.T) {
	tight := &Forecast{Headroom: 0.5}
	loose := &Forecast{Headroom: 2}
	s := sum(0, 16, 10, 16, 10, 0, 20) // accum 6 + next 6 = 12
	if !tight.Decide(s).Fire {
		t.Error("headroom 0.5 (budget 10) should fire at 12")
	}
	if loose.Decide(s).Fire {
		t.Error("headroom 2 (budget 40) should not fire at 12")
	}
}

func TestParseTriggerRoundTrip(t *testing.T) {
	for _, s := range []string{"always", "every:4", "threshold:0.25", "forecast", "forecast:headroom=1.5"} {
		ts, err := ParseTrigger(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		trig, err := ts.New()
		if err != nil {
			t.Fatalf("%q: New: %v", s, err)
		}
		if trig.Name() == "" {
			t.Fatalf("%q: empty name", s)
		}
		// String must reparse to the same spec.
		ts2, err := ParseTrigger(ts.String())
		if err != nil {
			t.Fatalf("%q: reparse %q: %v", s, ts.String(), err)
		}
		if ts2 != ts {
			t.Errorf("%q: round trip %+v != %+v", s, ts2, ts)
		}
	}
}

func TestParseTriggerRejects(t *testing.T) {
	for _, s := range []string{"", "sometimes", "every:0", "every:x", "threshold:-1", "forecast:headroom=0", "forecast:x=1", "always:2",
		"threshold:NaN", "forecast:headroom=NaN", "forecast:headroom=nan"} {
		if _, err := ParseTrigger(s); err == nil {
			t.Errorf("%q: accepted", s)
		}
	}
	// A spec built in code gets the same answer from New: a NaN parameter
	// compares false with everything and would skip every phase.
	for _, ts := range []TriggerSpec{{Family: "threshold", Threshold: math.NaN()}, {Family: "forecast", Headroom: math.NaN()}} {
		if trig, err := ts.New(); err == nil {
			t.Errorf("%s: New built %s", ts, trig.Name())
		}
	}
}

func TestTriggerDecisionsAreDeterministic(t *testing.T) {
	// Two instances fed the same summary sequence agree bit-for-bit —
	// the per-rank lockstep property the service's induction needs.
	mk := func() []Trigger {
		return []Trigger{&EveryK{K: 2}, &ImbalanceThreshold{H: 0.2}, &Forecast{}}
	}
	a, b := mk(), mk()
	for p := 0; p < 20; p++ {
		s := sum(p, float64(10+p%7), 8, float64(9+p%5), 8, p%3, 15)
		for i := range a {
			da, db := a[i].Decide(s), b[i].Decide(s)
			if da != db {
				t.Fatalf("trigger %s phase %d: %+v != %+v", a[i].Name(), p, da, db)
			}
			if strings.ContainsAny(da.Why, "\n") {
				t.Fatalf("trigger %s: multi-line Why breaks the log format", a[i].Name())
			}
		}
	}
}
