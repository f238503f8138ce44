package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func gossipConfig(f, k int) Config {
	cfg := Grapevine()
	cfg.Fanout = f
	cfg.Rounds = k
	return cfg
}

// newStateOn is NewInformStateOn configured by cfg on the generator as
// given, the way NewInformState configures its state.
func newStateOn(table *LoadTable, self Rank, cfg *Config, rng *rand.Rand) *InformState {
	st := NewInformStateOn(table, self, rng)
	st.configure(cfg)
	return st
}

// runGossip drives a synchronous FIFO delivery of the inform stage over
// the given per-rank loads and returns the states plus delivery count.
func runGossip(t *testing.T, loads []float64, cfg Config) ([]*InformState, int) {
	t.Helper()
	n := len(loads)
	sum := 0.0
	for _, l := range loads {
		sum += l
	}
	ave := sum / float64(n)
	table := NewLoadTable(n)
	states := make([]*InformState, n)
	for r := range states {
		states[r] = newStateOn(table, Rank(r), &cfg, rand.New(rand.NewSource(int64(r)+100)))
	}
	var queue []Send
	for r := range states {
		queue = append(queue, states[r].Begin(ave, loads[r])...)
	}
	for head := 0; head < len(queue); head++ {
		s := queue[head]
		if s.To < 0 || int(s.To) >= n {
			t.Fatalf("message to out-of-range rank %d", s.To)
		}
		more, _ := states[s.To].Receive(*s.Msg)
		queue = append(queue, more...)
	}
	return states, len(queue)
}

func TestGossipOnlyUnderloadedSeed(t *testing.T) {
	cfg := gossipConfig(2, 3)
	// Loads 10,0,0,0 -> ave 2.5; rank 0 overloaded.
	states := make([]*InformState, 4)
	for r := range states {
		states[r] = NewInformState(Rank(r), 4, &cfg, rand.New(rand.NewSource(int64(r))))
	}
	if sends := states[0].Begin(2.5, 10); sends != nil {
		t.Error("overloaded rank should not seed gossip")
	}
	if sends := states[1].Begin(2.5, 0); len(sends) != 2 {
		t.Errorf("underloaded rank seeded %d messages, want fanout 2", len(sends))
	}
}

func TestGossipSelfKnowledge(t *testing.T) {
	cfg := gossipConfig(2, 3)
	st := NewInformState(1, 4, &cfg, rand.New(rand.NewSource(1)))
	st.Begin(2.5, 1.0)
	if !st.Knowledge().Contains(1) {
		t.Error("underloaded rank must know itself")
	}
	if got := st.Knowledge().Load(1); got != 1.0 {
		t.Errorf("self load = %g", got)
	}
}

func TestGossipNeverSendsToSelf(t *testing.T) {
	cfg := gossipConfig(4, 4)
	st := NewInformState(2, 8, &cfg, rand.New(rand.NewSource(2)))
	for trial := 0; trial < 100; trial++ {
		st.Reset()
		for _, s := range st.Begin(10, 1) {
			if s.To == 2 {
				t.Fatal("rank sent gossip to itself")
			}
		}
	}
}

func TestGossipRoundsRespected(t *testing.T) {
	cfg := gossipConfig(2, 2)
	st := NewInformState(0, 8, &cfg, rand.New(rand.NewSource(3)))
	// Round k messages must not be forwarded.
	sends, _ := st.Receive(InformMsg{Round: 2, Entries: []RankLoad{{Rank: 5, Load: 0.5}}})
	if sends != nil {
		t.Errorf("round k message forwarded: %v", sends)
	}
	// Fresh state: round k−1 messages are forwarded with round k.
	st2 := NewInformState(0, 8, &cfg, rand.New(rand.NewSource(4)))
	sends, _ = st2.Receive(InformMsg{Round: 1, Entries: []RankLoad{{Rank: 5, Load: 0.5}}})
	if len(sends) != 2 {
		t.Fatalf("forwarded %d messages, want 2", len(sends))
	}
	for _, s := range sends {
		if s.Msg.Round != 2 {
			t.Errorf("forwarded round = %d, want 2", s.Msg.Round)
		}
	}
}

// TestGossipForwardOncePerRound: a round is forwarded at most once, at
// round 1 and at the highest round the forwarded mask has a bit for.
func TestGossipForwardOncePerRound(t *testing.T) {
	for _, tc := range []struct{ k, round int }{{5, 1}, {MaxRounds, MaxRounds - 1}} {
		k, round := tc.k, tc.round
		cfg := gossipConfig(2, k)
		st := NewInformState(0, 16, &cfg, rand.New(rand.NewSource(5)))
		first, _ := st.Receive(InformMsg{Round: round, Entries: []RankLoad{{Rank: 3, Load: 1}}})
		if len(first) == 0 {
			t.Fatalf("k=%d: first round-%d message not forwarded", k, round)
		}
		second, _ := st.Receive(InformMsg{Round: round, Entries: []RankLoad{{Rank: 4, Load: 1}}})
		if second != nil {
			t.Errorf("k=%d: second round-%d message also forwarded", k, round)
		}
	}
}

func TestGossipNoForwardWhenNothingNew(t *testing.T) {
	cfg := gossipConfig(2, 5)
	st := NewInformState(0, 16, &cfg, rand.New(rand.NewSource(6)))
	st.Receive(InformMsg{Round: 1, Entries: []RankLoad{{Rank: 3, Load: 1}}})
	// Same content at a later round: nothing new, no forward.
	sends, added := st.Receive(InformMsg{Round: 2, Entries: []RankLoad{{Rank: 3, Load: 1}}})
	if added != 0 || sends != nil {
		t.Errorf("redundant message forwarded: added=%d sends=%v", added, sends)
	}
}

func TestGossipKnowledgeGrowsMonotonically(t *testing.T) {
	cfg := gossipConfig(3, 4)
	loads := make([]float64, 64)
	for i := range loads {
		if i%4 == 0 {
			loads[i] = 8
		} else {
			loads[i] = 0.5
		}
	}
	states, _ := runGossip(t, loads, cfg)
	for r, st := range states {
		k := st.Knowledge()
		if k.Len() > 0 {
			// Every entry must be a genuinely underloaded rank.
			sum := 0.0
			for _, l := range loads {
				sum += l
			}
			ave := sum / float64(len(loads))
			for _, x := range members(k) {
				if loads[x] >= ave {
					t.Fatalf("rank %d knows overloaded rank %d", r, x)
				}
			}
		}
	}
}

// TestGossipReachesOverloadedRanks verifies the purpose of the inform
// stage: with reasonable f·k, overloaded ranks end up knowing a large
// fraction of the underloaded ranks.
func TestGossipReachesOverloadedRanks(t *testing.T) {
	cfg := gossipConfig(4, 6)
	n := 128
	loads := make([]float64, n)
	for i := 0; i < 4; i++ {
		loads[i] = 100
	}
	underloaded := n - 4
	states, _ := runGossip(t, loads, cfg)
	for r := 0; r < 4; r++ {
		got := states[r].Knowledge().Len()
		if got < underloaded/2 {
			t.Errorf("overloaded rank %d knows only %d/%d underloaded ranks", r, got, underloaded)
		}
	}
}

func TestGossipDeterministic(t *testing.T) {
	cfg := gossipConfig(3, 5)
	loads := make([]float64, 32)
	for i := range loads {
		loads[i] = float64(i % 5)
	}
	s1, n1 := runGossip(t, loads, cfg)
	s2, n2 := runGossip(t, loads, cfg)
	if n1 != n2 {
		t.Fatalf("message counts differ: %d vs %d", n1, n2)
	}
	for r := range s1 {
		k1, k2 := s1[r].Knowledge(), s2[r].Knowledge()
		if !slices.Equal(members(k1), members(k2)) {
			t.Fatalf("rank %d knowledge differs", r)
		}
		for _, x := range members(k1) {
			if k1.Load(x) != k2.Load(x) {
				t.Fatalf("rank %d: load of rank %d differs", r, x)
			}
		}
	}
}

func TestGossipTerminates(t *testing.T) {
	// The rounds bound guarantees termination, and forwarding a round at
	// most once holds the volume to fanout messages per rank and round.
	cfg := gossipConfig(2, 3)
	loads := make([]float64, 16)
	for i := range loads {
		loads[i] = float64(i)
	}
	_, delivered := runGossip(t, loads, cfg)
	if bound := len(loads) * cfg.Fanout * cfg.Rounds; delivered <= 0 || delivered > bound {
		t.Errorf("%d messages delivered, want between 1 and P·f·k = %d", delivered, bound)
	}
}

func TestKnowledgeBasics(t *testing.T) {
	k := NewKnowledge(8)
	if !k.Add(3, 1.5) {
		t.Error("first Add returned false")
	}
	if k.Add(3, 9.9) {
		t.Error("duplicate Add returned true")
	}
	if k.Load(3) != 1.5 {
		t.Error("duplicate Add overwrote load")
	}
	if k.Len() != 1 || !k.Contains(3) || k.Contains(4) {
		t.Error("membership wrong")
	}
	if k.NumRanks() != 8 {
		t.Error("NumRanks wrong")
	}
	mustPanic(t, "Load unknown", func() { k.Load(5) })
}

func TestKnowledgeEntriesSnapshotImmutable(t *testing.T) {
	cfg := gossipConfig(2, 3)
	st := NewInformState(1, 8, &cfg, rand.New(rand.NewSource(1)))
	snap := st.Begin(2, 1)[0].Msg
	k := st.Knowledge()
	k.Add(2, 2)
	if got := rows(snap); len(got) != 1 || got[0] != (RankLoad{1, 1}) || snap.Len() != 1 {
		t.Errorf("snapshot mutated: %v", got)
	}
}

func TestKnowledgeMergeAndReset(t *testing.T) {
	k := NewKnowledge(8)
	added := k.Merge([]RankLoad{{1, 1}, {2, 2}, {1, 9}})
	if added != 2 || k.Len() != 2 || k.Load(1) != 1 {
		t.Errorf("Merge added %d, len %d, load of 1 %g", added, k.Len(), k.Load(1))
	}
	k.Reset()
	if k.Len() != 0 || k.Contains(1) {
		t.Error("Reset did not clear")
	}
	if !k.Add(2, 3) || k.Load(2) != 3 {
		t.Error("Add after Reset kept the old load")
	}
	if !k.Add(1, 5) {
		t.Error("Add after Reset failed")
	}
	if k.Load(1) != 5 {
		t.Error("load after Reset wrong")
	}
}

// TestStartTrialIsAFreshState: a gossip state driven through a trial and
// then started on the next is indistinguishable from one freshly built
// on the same table and started there — the same sends, the same
// forwarding decisions and the same knowledge — so the drivers may keep
// one state per rank for a whole refinement. Skipping either half of
// StartTrial, the reseed or the Reset, shows in the script's trace. And
// a state started under another Config — another seed, fan-out and
// entry cap, and more rounds, so its payload slots must grow — is one
// freshly built under that Config, so the drivers may keep it across
// invocations too: a StartTrial that kept its first Config shows.
func TestStartTrialIsAFreshState(t *testing.T) {
	const n, self, trial = 64, Rank(5), 3
	cfg := gossipConfig(3, 4)
	cfg.Seed = 11
	table := NewLoadTable(n)
	// script drives one trial: an underloaded Begin, then a round-1
	// message that teaches something, a second round-1 one (merged, not
	// forwarded), a redundant round-2 one, a new round-2 one and one of
	// round 4, the last of cfg. It returns each call's sends as text,
	// then the knowledge.
	script := func(st *InformState) []string {
		var trace []string
		note := func(sends []Send) {
			trace = append(trace, fmt.Sprintf("%d sends", len(sends)))
			for _, s := range sends {
				var rows []RankLoad
				s.Msg.Rows(0, s.Msg.Len(), func(e RankLoad) { rows = append(rows, e) })
				trace = append(trace, fmt.Sprintf("to %d round %d %v", s.To, s.Msg.Round, rows))
			}
		}
		note(st.Begin(1, 0.5))
		for _, m := range []InformMsg{
			{Round: 1, Entries: []RankLoad{{Rank: 10, Load: 0.2}, {Rank: 11, Load: 0.3}}},
			{Round: 1, Entries: []RankLoad{{Rank: 12, Load: 0.1}}},
			{Round: 2, Entries: []RankLoad{{Rank: 10, Load: 0.2}}},
			{Round: 2, Entries: []RankLoad{{Rank: 20, Load: 0.4}}},
			{Round: 4, Entries: []RankLoad{{Rank: 30, Load: 0.6}}},
		} {
			sends, _ := st.Receive(m)
			note(sends)
		}
		k := st.Knowledge()
		for _, r := range k.appendMembers(nil) {
			trace = append(trace, fmt.Sprintf("knows %d at %g", r, k.Load(r)))
		}
		return trace
	}

	reused := NewInformStateOn(table, self, SeededRNG(cfg.Seed))
	reused.StartTrial(&cfg, trial)
	first := script(reused)
	reused.StartTrial(&cfg, trial+1)
	if got := reused.Knowledge().Len(); got != 0 {
		t.Fatalf("StartTrial left %d entries of the last trial's knowledge", got)
	}
	fresh := newStateOn(table, self, &cfg, SeededRNG(cfg.Seed))
	fresh.StartTrial(&cfg, trial+1)
	want, got := script(fresh), script(reused)
	if !slices.Equal(got, want) {
		t.Fatalf("restarted state differs from a fresh one:\nrestarted %q\nfresh     %q", got, want)
	}
	if slices.Equal(first, want) {
		t.Fatal("two trials drew the same targets: the script cannot tell a missing reseed")
	}

	// Under other, the round-4 message is forwarded as round 5, into a
	// slot the state did not have under cfg, and payloads of more than
	// two entries are down-sampled lists.
	other := gossipConfig(2, 6)
	other.Seed, other.MaxGossipEntries = 12, 2
	reused.StartTrial(&other, trial)
	fresh = newStateOn(table, self, &other, SeededRNG(other.Seed))
	fresh.StartTrial(&other, trial)
	want, got = script(fresh), script(reused)
	if !slices.Equal(got, want) {
		t.Fatalf("state restarted under another Config differs from a fresh one under it:\nrestarted %q\nfresh     %q", got, want)
	}
	if !slices.ContainsFunc(want, func(line string) bool { return strings.Contains(line, "round 5") }) {
		t.Fatal("the script sent nothing in round 5: it cannot tell slots that did not grow")
	}
}
