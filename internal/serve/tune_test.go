package serve

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"temperedlb/internal/core"
)

func TestSimulateDeterministic(t *testing.T) {
	cfg := serveConfig(KindChurn)
	a, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Simulate(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two runs differ: %+v vs %+v", a, b)
	}
	if a.Fires+a.Skips != cfg.Scenario.Phases {
		t.Errorf("fires %d + skips %d != %d phases", a.Fires, a.Skips, cfg.Scenario.Phases)
	}
}

func TestSimulateRebalanceReducesWaste(t *testing.T) {
	// The real protocol, invoked every phase, must leave less waste than
	// never invoking it on a clustered burst stream.
	never, always := serveConfig(KindBurst), serveConfig(KindBurst)
	never.Trigger = TriggerSpec{Family: "threshold", Threshold: 1e12}
	always.Trigger = TriggerSpec{Family: "every", K: 1}
	n, err := Simulate(never)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Simulate(always)
	if err != nil {
		t.Fatal(err)
	}
	if n.Fires != 0 {
		t.Fatalf("never-trigger fired %d times", n.Fires)
	}
	if a.TotalWaste >= n.TotalWaste {
		t.Errorf("always-rebalance waste %.2f not below never-rebalance %.2f", a.TotalWaste, n.TotalWaste)
	}
}

// TestSimulateRefusesBadConfigOnce: what Run would refuse on every rank is
// one error here, with no "rank N:" prefix — no job ran to report it.
func TestSimulateRefusesBadConfigOnce(t *testing.T) {
	for _, tc := range []struct {
		want string
		set  func(*Config)
	}{
		{"serve: alpha 2: want in (0,1]", func(c *Config) { c.Alpha = 2 }},
		{"serve: ranks 0: want >= 1", func(c *Config) { c.Scenario.Ranks = 0 }},
		{"serve: LB configuration: ", func(c *Config) { c.LB = core.Tempered(); c.LB.Rounds, c.LB.Trials = 1, 0 }},
		{`serve: unknown trigger family "nope"`, func(c *Config) { c.Trigger = TriggerSpec{Family: "nope"} }},
		{"serve: trigger threshold:NaN: ", func(c *Config) { c.Trigger = TriggerSpec{Family: "threshold", Threshold: math.NaN()} }},
	} {
		cfg := serveConfig(KindBurst)
		tc.set(&cfg)
		if _, err := Simulate(cfg); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("got %v, want %q…", err, tc.want)
		}
	}
}

// TestTuneRowIsTheServiceRow extends the cross-transport identity to the
// tuner: for one candidate per family, the Result Tune reports is the one
// Run returns for that Config on a two-node unix-socket job.
func TestTuneRowIsTheServiceRow(t *testing.T) {
	cfg := serveConfig(KindBurst)
	_, all, err := Tune(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range []TriggerSpec{
		{Family: "every", K: 3}, {Family: "threshold", Threshold: 0.2}, {Family: "forecast", Headroom: 2},
	} {
		var got *Result
		for i := range all {
			if all[i].Spec == ts {
				got = &all[i].Result
			}
		}
		if got == nil {
			t.Fatalf("%s is not on the grid", ts)
		}
		live := cfg
		live.Trigger = ts
		results := runService(t, "unix", 2, live)
		want := results[0]
		want.LocalMigrations = sumMigrations(results)
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("%s: tuner row (fires %d, total %g, fp %x) is not the service's (fires %d, total %g, fp %x)",
				ts, got.Fires, got.TotalCost, got.AssignFP, want.Fires, want.TotalCost, want.AssignFP)
		}
	}
}

func TestTunePicksCheapestAndIsDeterministic(t *testing.T) {
	cfg := serveConfig(KindBurst)
	best, all, err := Tune(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("empty grid")
	}
	for _, c := range all {
		if c.Result.TotalCost < best.Result.TotalCost {
			t.Errorf("candidate %s cost %.2f beats reported best %s %.2f",
				c.Spec, c.Result.TotalCost, best.Spec, best.Result.TotalCost)
		}
	}
	best2, all2, _ := Tune(cfg, nil)
	if !reflect.DeepEqual(best, best2) || !reflect.DeepEqual(all, all2) {
		t.Error("two tuning sweeps differ")
	}
	if _, _, err := Tune(cfg, []string{"nope"}); err == nil {
		t.Error("unknown family accepted")
	}
}

func TestTuneFamilySubset(t *testing.T) {
	best, all, err := Tune(serveConfig(KindDiurnal), []string{"forecast"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range all {
		if c.Spec.Family != "forecast" {
			t.Fatalf("family subset leaked %s", c.Spec)
		}
	}
	if best.Spec.Family != "forecast" {
		t.Errorf("best %s outside requested family", best.Spec)
	}
}
