package core

import (
	"math/rand"
	"testing"
)

// TestMaxGossipEntriesCapsPayloads checks the limited-information mode:
// no message carries more than the cap, and balancing still works with
// bounded information.
func TestMaxGossipEntriesCapsPayloads(t *testing.T) {
	cfg := Grapevine()
	cfg.Rounds, cfg.Fanout = 5, 3
	cfg.MaxGossipEntries = 4
	st := NewInformState(0, 64, &cfg, rand.New(rand.NewSource(1)))
	// Give the state more knowledge than the cap.
	for r := 1; r <= 20; r++ {
		st.Knowledge().Add(Rank(r), float64(r))
	}
	sends, _ := st.Receive(InformMsg{Round: 1, Entries: []RankLoad{{Rank: 30, Load: 1}}})
	if len(sends) == 0 {
		t.Fatal("no forwards")
	}
	for _, s := range sends {
		if len(s.Msg.Entries) > 4 {
			t.Fatalf("payload %d exceeds cap 4", len(s.Msg.Entries))
		}
		// Every carried entry must be genuine knowledge.
		for _, e := range s.Msg.Entries {
			if !st.Knowledge().Contains(e.Rank) {
				t.Fatalf("payload invented entry %v", e)
			}
		}
	}
}

// TestLimitedInformationStillBalances: with a tight cap the engine
// converges more slowly but still improves substantially.
func TestLimitedInformationStillBalances(t *testing.T) {
	a := clusteredAssignment(64, 4, 400, 3)
	cfg := EngineConfig{Config: Tempered()}
	cfg.Trials, cfg.Iterations = 2, 5
	cfg.Rounds, cfg.Fanout = 5, 3
	cfg.MaxGossipEntries = 8
	eng, _ := NewEngine(cfg)
	res, err := eng.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalImbalance >= res.InitialImbalance/2 {
		t.Errorf("limited info too weak: %g -> %g", res.InitialImbalance, res.FinalImbalance)
	}
}

// TestLimitedInformationReducesVolume compares gossip entry volume with
// and without the cap on the same workload.
func TestLimitedInformationReducesVolume(t *testing.T) {
	run := func(cap int) int {
		a := clusteredAssignment(64, 4, 300, 4)
		cfg := EngineConfig{Config: Tempered()}
		cfg.Trials, cfg.Iterations = 1, 3
		cfg.Rounds, cfg.Fanout = 5, 3
		cfg.MaxGossipEntries = cap
		eng, _ := NewEngine(cfg)
		res, _ := eng.Run(a)
		entries := 0
		for _, it := range res.History {
			entries += it.GossipEntries
		}
		return entries
	}
	unlimited, capped := run(0), run(4)
	if capped >= unlimited {
		t.Errorf("cap did not reduce volume: %d vs %d", capped, unlimited)
	}
}
