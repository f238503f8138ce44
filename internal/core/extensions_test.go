package core

import (
	"math/rand"
	"testing"
)

// TestNegativeAcksPreventRecipientOverload verifies Menon's veto: with
// NACKs on and the original criterion, no rank that was underloaded at
// the start of an iteration ends it above the average because of
// accepted transfers.
func TestNegativeAcksPreventRecipientOverload(t *testing.T) {
	a := clusteredAssignment(32, 2, 200, 1)
	cfg := EngineConfig{Config: Grapevine()}
	cfg.Iterations = 4
	cfg.Rounds, cfg.Fanout = 4, 3
	cfg.NegativeAcks = true
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	nacks := 0
	for _, it := range res.History {
		nacks += it.Nacks
	}
	// The clustered workload forces collisions, so some vetoes must
	// fire; and the result must still improve the distribution.
	if nacks == 0 {
		t.Error("no NACKs fired on a collision-prone workload")
	}
	if res.FinalImbalance >= res.InitialImbalance {
		t.Errorf("no improvement with NACKs: %g -> %g", res.InitialImbalance, res.FinalImbalance)
	}
	// With the original criterion and vetoes enforced on true loads,
	// the applied distribution can have at most the sender ranks above
	// the average... verify recipients stayed below it.
	res.Apply(a)
	ave := a.AveLoad()
	above := 0
	for r := 0; r < a.NumRanks(); r++ {
		if a.RankLoad(Rank(r)) > ave {
			above++
		}
	}
	if above > 2 {
		t.Errorf("%d ranks above average despite NACKs (only the 2 senders may be)", above)
	}
}

// TestNegativeAcksSubsumedByIteration quantifies the paper's §V-A claim:
// iterative refinement without NACKs reaches at least the quality of
// single-shot balancing with NACKs.
func TestNegativeAcksSubsumedByIteration(t *testing.T) {
	mk := func() *Assignment { return clusteredAssignment(48, 3, 400, 2) }

	withNacks := EngineConfig{Config: Grapevine()}
	withNacks.Criterion = CriterionRelaxed
	withNacks.CMF = CMFModified
	withNacks.NegativeAcks = true
	e1, _ := NewEngine(withNacks)
	r1, _ := e1.Run(mk())

	iterated := EngineConfig{Config: Tempered()}
	iterated.Trials, iterated.Iterations = 2, 6
	iterated.Rounds, iterated.Fanout = 4, 3
	e2, _ := NewEngine(iterated)
	r2, _ := e2.Run(mk())

	if r2.FinalImbalance > r1.FinalImbalance {
		t.Errorf("refinement (%g) lost to NACKs (%g)", r2.FinalImbalance, r1.FinalImbalance)
	}
}

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
