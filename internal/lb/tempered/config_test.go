package tempered

import (
	"reflect"
	"testing"

	"temperedlb/internal/core"
)

// configKnobs perturbs every core.Config field away from the base
// configuration of TestEveryConfigFieldReachesBothDrivers, each to a value
// Validate accepts. base, where set, first moves the unperturbed
// configuration to where the field can matter.
var configKnobs = map[string]struct {
	base, set func(*core.Config)
}{
	"Fanout":       {set: func(c *core.Config) { c.Fanout = 3 }},
	"Rounds":       {set: func(c *core.Config) { c.Rounds = 2 }},
	"Threshold":    {set: func(c *core.Config) { c.Threshold = 1.5 }},
	"Criterion":    {set: func(c *core.Config) { c.Criterion = core.CriterionOriginal }},
	"CMF":          {set: func(c *core.Config) { c.CMF = core.CMFOriginal }},
	"Order":        {set: func(c *core.Config) { c.Order = core.OrderLoadIntensive }},
	"RecomputeCMF": {set: func(c *core.Config) { c.RecomputeCMF = false }},
	"Passes":       {set: func(c *core.Config) { c.Passes = 0 }},
	"Trials":       {set: func(c *core.Config) { c.Trials = 3 }},
	"Iterations":   {set: func(c *core.Config) { c.Iterations = 4 }},
	"Seed":         {set: func(c *core.Config) { c.Seed = 2 }},
	// A round-1 message carries its sender's own entry and nothing else,
	// so the cap bites from the second round on.
	"MaxGossipEntries": {
		base: func(c *core.Config) { c.Rounds = 2 },
		set:  func(c *core.Config) { c.MaxGossipEntries = 1 },
	},
}

// TestEveryConfigFieldReachesBothDrivers is the north star's sentence as a
// gate: there is no core.Config field that one driver of the protocol
// honours and the other ignores. Every field — the walk is over the struct,
// so a new one fails here until it has a row — is perturbed on one small
// workload, and the synchronous engine's History and the distributed
// balancer's result must both move.
func TestEveryConfigFieldReachesBothDrivers(t *testing.T) {
	const ranks, hot, perHot = 32, 4, 30
	a := hotAssignment(ranks, hot, perHot)
	engine := func(cfg core.Config) []core.IterationStats {
		h := engineHistory(t, a, core.EngineConfig{Config: cfg})
		for i := range h {
			h[i].ElapsedSeconds = 0
		}
		return h
	}
	distributed := func(cfg core.Config) DistResult {
		results, _, _ := runChaosCase(t, ranks, hot, perHot, cfg, nil, nonDyadicLoad)
		return results[0].StripTiming()
	}
	entriesPerMessage := func(h []core.IterationStats) float64 {
		msgs, entries := 0, 0
		for _, it := range h {
			msgs += it.GossipMessages
			entries += it.GossipEntries
		}
		return float64(entries) / float64(msgs)
	}

	typ := reflect.TypeOf(core.Config{})
	if typ.NumField() != len(configKnobs) {
		t.Errorf("core.Config has %d fields, configKnobs %d rows", typ.NumField(), len(configKnobs))
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		knob, ok := configKnobs[name]
		if !ok {
			t.Errorf("core.Config.%s has no row in configKnobs: show that both drivers read it", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			// One gossip round, where the distributed result is a function
			// of the configuration alone (DESIGN.md §10): a difference is
			// then the knob's doing, not the scheduler's.
			cfg := driversBase()
			if knob.base != nil {
				knob.base(&cfg)
			}
			was := cfg
			knob.set(&cfg)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("the row's value is refused: %v", err)
			}
			e0, e1 := engine(was), engine(cfg)
			if reflect.DeepEqual(e0, e1) {
				t.Errorf("Engine.Run ignores %s: History unchanged", name)
			}
			d0, d1 := distributed(was), distributed(cfg)
			if reflect.DeepEqual(d0, d1) {
				t.Errorf("RunDistributed ignores %s: result unchanged", name)
			}
			if name == "MaxGossipEntries" {
				// Two rounds are not order-independent, so unequal proves
				// nothing here; that every message carries one entry does.
				if got := entriesPerMessage(e1); got != 1 {
					t.Errorf("Engine.Run: %g entries per message under a cap of 1", got)
				}
				if got, free := entriesPerMessage(d1.History), entriesPerMessage(d0.History); got != 1 || free <= 1 {
					t.Errorf("RunDistributed: %g entries per message under a cap of 1, %g uncapped", got, free)
				}
			}
		})
	}
}

// hotAssignment puts perHot objects of non-dyadic loads on each of the
// first hot of ranks ranks: the small workload both drivers are held to.
func hotAssignment(ranks, hot, perHot int) *core.Assignment {
	a := core.NewAssignment(ranks)
	for r := 0; r < hot; r++ {
		for i := 0; i < perHot; i++ {
			a.Add(nonDyadicLoad(r, i, perHot), core.Rank(r))
		}
	}
	return a
}

// driversBase is the configuration the drivers are compared at: two
// trials of three iterations with one gossip round.
func driversBase() core.Config {
	cfg := core.Tempered()
	cfg.Trials, cfg.Iterations, cfg.Rounds = 2, 3, 1
	return cfg
}

// engineHistory runs the synchronous engine on a and returns its History.
func engineHistory(t *testing.T, a *core.Assignment, cfg core.EngineConfig) []core.IterationStats {
	t.Helper()
	eng, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	return res.History
}

// TestEveryHistoryFieldIsFilled is the other half of
// TestEveryConfigFieldReachesBothDrivers: there is no core.IterationStats
// field that a driver never fills, so no History row carries a column that
// is always zero. The walk is over the struct; on the small workload both
// drivers run, every field must be nonzero in some row of the engine's
// History and of RunDistributed's, with no exceptions.
func TestEveryHistoryFieldIsFilled(t *testing.T) {
	const ranks, hot, perHot = 32, 4, 30
	a, cfg := hotAssignment(ranks, hot, perHot), driversBase()
	results, _, _ := runChaosCase(t, ranks, hot, perHot, cfg, nil, nonDyadicLoad)
	engine := engineHistory(t, a, core.EngineConfig{Config: cfg})
	filled := func(h []core.IterationStats, field int) bool {
		for _, row := range h {
			if !reflect.ValueOf(row).Field(field).IsZero() {
				return true
			}
		}
		return false
	}

	typ := reflect.TypeOf(core.IterationStats{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if !filled(engine, i) {
			t.Errorf("Engine.Run leaves IterationStats.%s zero in every row: fill it or delete the field", name)
		}
		if !filled(results[0].History, i) {
			t.Errorf("RunDistributed leaves IterationStats.%s zero in every row: fill it or delete the field", name)
		}
	}
}
