package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// knowledgeModel is the plain reference the generated-input tests hold
// Knowledge to: a log in insertion order with the loads as learned, and
// a map of current loads that Update overwrites.
type knowledgeModel struct {
	log  []RankLoad
	load map[Rank]float64
}

func newKnowledgeModel() *knowledgeModel {
	return &knowledgeModel{load: map[Rank]float64{}}
}

func (m *knowledgeModel) add(r Rank, l float64) bool {
	if _, ok := m.load[r]; ok {
		return false
	}
	m.load[r] = l
	m.log = append(m.log, RankLoad{Rank: r, Load: l})
	return true
}

func (m *knowledgeModel) reset() {
	m.log = m.log[:0]
	clear(m.load)
}

func (m *knowledgeModel) maxLoad() float64 {
	max := 0.0
	for _, l := range m.load {
		if l > max {
			max = l
		}
	}
	return max
}

// sorted returns the model's log stably sorted by rank: what
// Canonicalize must leave in Entries, gossip-time loads included.
func (m *knowledgeModel) sorted() []RankLoad {
	out := slices.Clone(m.log)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// check compares every read path of k with the model over the whole
// rank space.
func (m *knowledgeModel) check(t *testing.T, k *Knowledge, numRanks int, when string) {
	t.Helper()
	if k.Len() != len(m.log) {
		t.Fatalf("%s: Len %d, model %d", when, k.Len(), len(m.log))
	}
	for r := Rank(0); int(r) < numRanks; r++ {
		want, known := m.load[r]
		if k.Contains(r) != known {
			t.Fatalf("%s: Contains(%d) = %v, model %v", when, r, k.Contains(r), known)
		}
		if known && k.Load(r) != want {
			t.Fatalf("%s: Load(%d) = %g, model %g", when, r, k.Load(r), want)
		}
	}
	if got, want := k.MaxLoad(), m.maxLoad(); got != want {
		t.Fatalf("%s: MaxLoad %g, model %g", when, got, want)
	}
}

// randomLog draws n distinct ranks of [0, numRanks) in random order with
// random loads; the highest rank is always among them, so the last bit
// of the last bitset word is exercised at every size.
func randomLog(rng *rand.Rand, numRanks, n int) []RankLoad {
	perm := rng.Perm(numRanks)
	at := slices.Index(perm, numRanks-1)
	perm[0], perm[at] = perm[at], perm[0]
	log := make([]RankLoad, n)
	for i := range log {
		log[i] = RankLoad{Rank: Rank(perm[i]), Load: rng.Float64()}
	}
	rng.Shuffle(n, func(i, j int) { log[i], log[j] = log[j], log[i] })
	return log
}

func TestCanonicalizeEqualsStableSort(t *testing.T) {
	for _, numRanks := range []int{1, 2, 63, 64, 65, 4096} {
		t.Run(fmt.Sprint("P=", numRanks), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(numRanks)))
			k := NewKnowledge(numRanks)
			for round := 0; round < 20; round++ {
				k.Reset()
				m := newKnowledgeModel()
				for _, e := range randomLog(rng, numRanks, 1+rng.Intn(numRanks)) {
					k.Add(e.Rank, e.Load)
					m.add(e.Rank, e.Load)
				}
				update := func() {
					for i := rng.Intn(8); i > 0; i-- {
						r := m.log[rng.Intn(len(m.log))].Rank
						l := 10 * rng.Float64()
						k.Update(r, l)
						m.load[r] = l
					}
				}
				if round%2 == 1 {
					update() // Updates before the sort must not leak into the log
				}
				k.Canonicalize()
				want := m.sorted()
				if got := k.Entries(); !slices.Equal(got, want) {
					t.Fatalf("round %d: Canonicalize left %v, want %v", round, got, want)
				}
				m.check(t, k, numRanks, "after Canonicalize")

				update()
				k.Canonicalize()
				if got := k.Entries(); !slices.Equal(got, want) {
					t.Fatalf("round %d: Canonicalize after Updates left %v, want %v", round, got, want)
				}
				m.check(t, k, numRanks, "after Updates and a second Canonicalize")
			}
		})
	}
}

// TestKnowledgeMatchesModel interleaves every mutation and holds the
// read paths to the model after each. It pins the on-demand load table:
// an Update made between two Merges must survive the second one, loads
// learned after the table was first built must still be found, and a
// Reset must forget Updates along with everything else.
func TestKnowledgeMatchesModel(t *testing.T) {
	for _, numRanks := range []int{1, 2, 63, 64, 65, 300} {
		t.Run(fmt.Sprint("P=", numRanks), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(numRanks) + 1000))
			k := NewKnowledge(numRanks)
			m := newKnowledgeModel()
			for step := 0; step < 2000; step++ {
				var when string
				switch op := rng.Intn(20); {
				case op < 8:
					r, l := Rank(rng.Intn(numRanks)), rng.Float64()
					when = fmt.Sprintf("step %d: Add(%d)", step, r)
					if got, want := k.Add(r, l), m.add(r, l); got != want {
						t.Fatalf("%s reported %v, model %v", when, got, want)
					}
				case op < 12:
					payload := randomLog(rng, numRanks, 1+rng.Intn(min(numRanks, 12)))
					when = fmt.Sprintf("step %d: Merge of %d", step, len(payload))
					want := 0
					for _, e := range payload {
						if m.add(e.Rank, e.Load) {
							want++
						}
					}
					if got := k.Merge(payload); got != want {
						t.Fatalf("%s added %d, model %d", when, got, want)
					}
				case op < 17:
					if len(m.log) == 0 {
						continue
					}
					r, l := m.log[rng.Intn(len(m.log))].Rank, 10*rng.Float64()
					when = fmt.Sprintf("step %d: Update(%d)", step, r)
					k.Update(r, l)
					m.load[r] = l
				case op < 19:
					when = fmt.Sprintf("step %d: Canonicalize", step)
					k.Canonicalize()
					m.log = m.sorted()
				default:
					when = fmt.Sprintf("step %d: Reset", step)
					k.Reset()
					m.reset()
				}
				// Half the steps leave the table alone, so Adds pile up
				// behind it between lookups.
				if step%2 == 0 {
					m.check(t, k, numRanks, when)
				}
				if got := k.Entries(); !slices.Equal(got, m.log) {
					t.Fatalf("%s: Entries %v, model %v", when, got, m.log)
				}
			}
		})
	}
}

// TestEntriesSnapshotSurvivesAdds: a payload in flight must not change
// when its sender learns more, whether the log grows in place or moves.
func TestEntriesSnapshotSurvivesAdds(t *testing.T) {
	const numRanks = 4096
	rng := rand.New(rand.NewSource(5))
	k := NewKnowledge(numRanks)
	type held struct{ snap, copy []RankLoad }
	var snaps []held
	for _, e := range randomLog(rng, numRanks, numRanks) {
		k.Add(e.Rank, e.Load)
		if rng.Intn(64) == 0 {
			s := k.Entries()
			snaps = append(snaps, held{s, slices.Clone(s)})
		}
		if rng.Intn(256) == 0 {
			k.Update(e.Rank, 99) // table writes never reach the log
		}
	}
	for i, h := range snaps {
		if !slices.Equal(h.snap, h.copy) {
			t.Fatalf("snapshot %d of %d entries changed under later Adds", i, len(h.copy))
		}
	}
}

// Package sinks keep the benchmarked calls from being optimized away.
var (
	sinkInt   int
	sinkSends []Send
)

// benchRanks is the paper's scale; benchKnown the underloaded set of its
// §V-B case (all but the 16 loaded ranks), the size every knowledge log
// converges to there.
const (
	benchRanks = 4096
	benchKnown = benchRanks - 16
)

func BenchmarkKnowledgeMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	payload := randomLog(rng, benchRanks, benchKnown)
	// novel: every entry of the payload is new — the first message a rank
	// hears. redundant: none is — the steady state of rounds 4 to 10.
	b.Run("novel", func(b *testing.B) {
		k := NewKnowledge(benchRanks)
		k.Merge(payload)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.Reset()
			sinkInt = k.Merge(payload)
		}
	})
	b.Run("redundant", func(b *testing.B) {
		k := NewKnowledge(benchRanks)
		k.Merge(payload)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkInt = k.Merge(payload)
		}
	})
}

func BenchmarkKnowledgeCanonicalize(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	payload := randomLog(rng, benchRanks, benchKnown)
	k := NewKnowledge(benchRanks)
	k.Merge(payload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Put the log back in arrival order (a 64 KB copy against a
		// permutation of 4080 entries); membership is unchanged.
		copy(k.entries, payload)
		k.Canonicalize()
	}
	sinkInt = k.Len()
}

// BenchmarkInformTrialStart is what a rank pays to begin a trial with
// the knowledge of the previous one still in its state: re-point the
// generator, clear the gossip state, seed the first round.
func BenchmarkInformTrialStart(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	cfg := Tempered()
	st := NewInformState(7, benchRanks, &cfg, SeededRNG(cfg.Seed))
	st.Receive(InformMsg{Round: cfg.Rounds, Entries: randomLog(rng, benchRanks, benchKnown)})
	full := slices.Clone(st.know.member)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Put the previous trial's knowledge back: the log at full
		// length and a 512-byte bitset.
		st.know.entries = st.know.entries[:benchKnown]
		copy(st.know.member, full)
		st.StartTrial(1 + i%cfg.Trials)
		sinkSends = st.Begin(1, 0.5)
	}
}
