package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// members returns S^p in rank order.
func members(k *Knowledge) []Rank { return k.appendMembers(nil) }

// rows returns a message's entries in the order Rows walks them.
func rows(m *InformMsg) []RankLoad {
	var out []RankLoad
	m.Rows(0, m.Len(), func(e RankLoad) { out = append(out, e) })
	return out
}

// explicit returns m in explicit form: what a frame decoded from another
// node carries.
func explicit(m *InformMsg) *InformMsg { return &InformMsg{Round: m.Round, Entries: rows(m)} }

// snapshotOf returns a snapshot-form message of k's current set, as a
// fan-out of a state on k's table would carry it.
func snapshotOf(k *Knowledge) *InformMsg {
	words := slices.Clone(k.member[k.lo:k.hi])
	return &InformMsg{known: snapshot{words: words, table: k.table, base: int32(k.lo), count: int32(k.n)}}
}

// knowledgeModel is the plain reference the generated-input tests hold
// Knowledge to: the set S^p as a map from rank to its load, which Add and
// Merge fill.
type knowledgeModel struct {
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
	return true
}

// check compares every read path of k with the model over the whole
// rank space.
func (m *knowledgeModel) check(t *testing.T, k *Knowledge, numRanks int, when string) {
	t.Helper()
	if k.Len() != len(m.load) {
		t.Fatalf("%s: Len %d, model %d", when, k.Len(), len(m.load))
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
	for w, word := range k.member {
		if word != 0 && (w < k.lo || w >= k.hi) {
			t.Fatalf("%s: word %d holds members outside the span [%d, %d)", when, w, k.lo, k.hi)
		}
	}
}

// randomLog draws n distinct ranks of [0, numRanks) in random order with
// loads from load; the highest rank is always among them, so the last
// bit of the last bitset word is exercised at every size.
func randomLog(rng *rand.Rand, numRanks, n int, load func(Rank) float64) []RankLoad {
	perm := rng.Perm(numRanks)
	at := slices.Index(perm, numRanks-1)
	perm[0], perm[at] = perm[at], perm[0]
	log := make([]RankLoad, n)
	for i := range log {
		log[i] = RankLoad{Rank: Rank(perm[i]), Load: load(Rank(perm[i]))}
	}
	rng.Shuffle(n, func(i, j int) { log[i], log[j] = log[j], log[i] })
	return log
}

// TestKnowledgeMatchesModel interleaves every mutation and holds the
// read paths to the set model after each: membership, count, loads and
// Reset. A second knowledge on the same table feeds snapshot merges. As
// in a gossip stage, every rank has one load per stage, redrawn at each
// Reset, and a known rank's Add must not overwrite its table slot.
func TestKnowledgeMatchesModel(t *testing.T) {
	for _, numRanks := range []int{1, 2, 63, 64, 65, 300} {
		t.Run(fmt.Sprint("P=", numRanks), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(numRanks) + 1000))
			table := NewLoadTable(numRanks)
			k, src := newKnowledgeOn(table), newKnowledgeOn(table)
			m := newKnowledgeModel()
			stage := make([]float64, numRanks)
			newStage := func() {
				for r := range stage {
					stage[r] = rng.Float64()
				}
			}
			newStage()
			staged := func(r Rank) float64 { return stage[r] }
			for step := 0; step < 3000; step++ {
				var when string
				switch op := rng.Intn(17); {
				case op < 6:
					r := Rank(rng.Intn(numRanks))
					l := stage[r]
					if k.Contains(r) {
						l = 10 + rng.Float64() // a known rank keeps its first load
					}
					when = fmt.Sprintf("step %d: Add(%d)", step, r)
					if got, want := k.Add(r, l), m.add(r, l); got != want {
						t.Fatalf("%s reported %v, model %v", when, got, want)
					}
				case op < 9:
					payload := randomLog(rng, numRanks, 1+rng.Intn(min(numRanks, 12)), staged)
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
				case op < 12:
					r := Rank(rng.Intn(numRanks))
					when = fmt.Sprintf("step %d: source Add(%d)", step, r)
					src.Add(r, stage[r])
				case op < 15:
					when = fmt.Sprintf("step %d: snapshot merge of %d", step, src.Len())
					want := 0
					for _, r := range members(src) {
						if m.add(r, stage[r]) {
							want++
						}
					}
					if got := k.merge(snapshotOf(src)); got != want {
						t.Fatalf("%s added %d, model %d", when, got, want)
					}
				default:
					when = fmt.Sprintf("step %d: Reset", step)
					k.Reset()
					src.Reset()
					clear(m.load)
					newStage()
				}
				// Half the steps go unchecked, so Adds and merges pile up
				// between reads.
				if step%2 == 0 {
					m.check(t, k, numRanks, when)
				}
				for _, r := range members(k) {
					if got := table.load(r); got != stage[r] {
						t.Fatalf("%s: table slot %d holds %g, its stage load is %g", when, r, got, stage[r])
					}
				}
			}
		})
	}
}

// TestForeignSnapshotIsRefused: a snapshot names slots of its own table,
// so a state on another table must not merge it.
func TestForeignSnapshotIsRefused(t *testing.T) {
	a, b := NewKnowledge(8), NewKnowledge(8)
	a.Add(3, 1)
	mustPanic(t, "foreign snapshot", func() { b.merge(snapshotOf(a)) })
	if got := b.Merge(explicit(snapshotOf(a)).Entries); got != 1 || b.Load(3) != 1 {
		t.Errorf("explicit form of the same set: added %d, load %g", got, b.Load(3))
	}
}

// TestSnapshotGossipMatchesExplicitGossip is the invariant the shared
// table rests on: within a gossip stage every copy of rank r's entry
// carries the load r announced at Begin. The same gossip runs twice from
// the same seeds — once with snapshot payloads over one shared table,
// once with every payload turned into its explicit list and merged into
// private per-state tables — through a seeded lossy network that drops
// 5 % of sends, duplicates 20 % of the rest and delivers a random queued
// message at each step, so deliveries are reordered. Every explicit entry must carry
// its rank's Begin load, and at every rank both runs must end with the
// same membership and the same loads.
func TestSnapshotGossipMatchesExplicitGossip(t *testing.T) {
	const n = 200
	for _, tc := range []struct {
		f, k, cap int
	}{{2, 3, 0}, {3, 6, 0}, {4, 10, 0}, {3, 6, 12}} {
		t.Run(fmt.Sprintf("f=%d,k=%d,cap=%d", tc.f, tc.k, tc.cap), func(t *testing.T) {
			cfg := gossipConfig(tc.f, tc.k)
			cfg.MaxGossipEntries = tc.cap
			rng := rand.New(rand.NewSource(int64(tc.f*100 + tc.k)))
			loads := make([]float64, n)
			sum := 0.0
			for r := range loads {
				loads[r] = rng.Float64()
				if r%10 == 0 {
					loads[r] = 5 + rng.Float64()
				}
				sum += loads[r]
			}
			ave := sum / n
			run := func(shared bool) []*InformState {
				table := NewLoadTable(n)
				states := make([]*InformState, n)
				for r := range states {
					rng := SeededRNG(cfg.Seed)
					if shared {
						states[r] = NewInformStateOn(table, Rank(r), &cfg, rng)
					} else {
						states[r] = NewInformState(Rank(r), n, &cfg, rng)
					}
					states[r].StartTrial(1)
				}
				// Both runs draw from one seed, so they meet the same fates
				// as long as they send the same messages.
				dice := rand.New(rand.NewSource(77))
				var queue []Send
				dropped, duplicated := 0, 0
				enqueue := func(sends []Send) {
					for _, s := range sends {
						switch {
						case dice.Float64() < 0.05:
							dropped++
						case dice.Float64() < 0.2:
							duplicated++
							queue = append(queue, s, s)
						default:
							queue = append(queue, s)
						}
					}
				}
				var out []Send
				send := func(from Rank, sends []Send) {
					if shared {
						enqueue(sends)
						return
					}
					out = out[:0]
					for _, s := range sends {
						s.Msg = explicit(s.Msg)
						for _, e := range s.Msg.Entries {
							if e.Load != loads[e.Rank] {
								t.Fatalf("rank %d sent rank %d's entry with load %g, its Begin load is %g",
									from, e.Rank, e.Load, loads[e.Rank])
							}
						}
						out = append(out, s)
					}
					enqueue(out)
				}
				for r, st := range states {
					send(Rank(r), st.Begin(ave, loads[r]))
				}
				for len(queue) > 0 {
					i, last := dice.Intn(len(queue)), len(queue)-1
					s := queue[i]
					queue[i], queue = queue[last], queue[:last]
					more, _ := states[s.To].Receive(*s.Msg)
					send(s.To, more)
				}
				if dropped == 0 || duplicated == 0 {
					t.Fatalf("lossy network injected nothing: %d dropped, %d duplicated", dropped, duplicated)
				}
				return states
			}
			snap, list := run(true), run(false)
			for r := range snap {
				ks, kl := snap[r].Knowledge(), list[r].Knowledge()
				if ks.Len() != kl.Len() || !slices.Equal(members(ks), members(kl)) {
					t.Fatalf("rank %d: snapshot run knows %v, explicit run %v", r, members(ks), members(kl))
				}
				for _, x := range members(ks) {
					if ks.Load(x) != loads[x] || kl.Load(x) != loads[x] {
						t.Fatalf("rank %d: rank %d's load is %g (snapshots), %g (lists), Begin load %g",
							r, x, ks.Load(x), kl.Load(x), loads[x])
					}
				}
			}
		})
	}
}

// TestEntriesSnapshotSurvivesAdds: a payload in flight must not change
// when its sender learns more, through every round of a stage. Every
// send of the stage is held by its pointer, with its round and rows as
// sent, and all of them still read so after the last round's fan-out;
// under a MaxGossipEntries cap the later rounds' payloads are explicit
// lists, which must not move either.
func TestEntriesSnapshotSurvivesAdds(t *testing.T) {
	const numRanks = 4096
	for _, capped := range []int{0, 64} {
		rng := rand.New(rand.NewSource(5))
		cfg := gossipConfig(2, 10)
		cfg.MaxGossipEntries = capped
		st := NewInformState(7, numRanks, &cfg, SeededRNG(cfg.Seed))
		type held struct {
			msg   *InformMsg
			round int
			copy  []RankLoad
		}
		var snaps []held
		rounds := map[*InformMsg]bool{}
		hold := func(sends []Send) {
			for _, s := range sends {
				snaps = append(snaps, held{s.Msg, s.Msg.Round, rows(s.Msg)})
				rounds[s.Msg] = true
			}
		}
		hold(st.Begin(1, 0.5))
		log := randomLog(rng, numRanks, numRanks, func(Rank) float64 { return rng.Float64() })
		for round := 1; round < cfg.Rounds; round++ {
			batch := log[(round-1)*numRanks/cfg.Rounds : round*numRanks/cfg.Rounds]
			sends, _ := st.Receive(InformMsg{Round: round, Entries: batch})
			hold(sends)
		}
		if len(snaps) != cfg.Rounds*cfg.Fanout || len(rounds) != cfg.Rounds {
			t.Fatalf("cap %d: held %d sends of %d payloads, want %d of one per round (%d)",
				capped, len(snaps), len(rounds), cfg.Rounds*cfg.Fanout, cfg.Rounds)
		}
		for i, h := range snaps {
			if h.msg.Round != h.round || !slices.Equal(rows(h.msg), h.copy) {
				t.Fatalf("cap %d: send %d (round %d, %d entries) reads round %d and %d entries after later fan-outs",
					capped, i, h.round, len(h.copy), h.msg.Round, h.msg.Len())
			}
		}
		if capped > 0 && snaps[len(snaps)-1].msg.Entries == nil {
			t.Fatalf("cap %d: the last round's payload is not an explicit list", capped)
		}
	}
}

// TestFanOutAllocatesNothing: once a warm-up stage has sized every
// state's slots, arena and send buffer, a whole stage — each rank's Begin
// and every Receive of a FIFO walk over snapshots — allocates nothing;
// and the stage walked by pointer learns what a walk that copies each
// message when it is sent learns, so no slot changed under a message in
// flight.
func TestFanOutAllocatesNothing(t *testing.T) {
	const n = 512
	cfg := Tempered()
	table := NewLoadTable(n)
	states := make([]*InformState, n)
	loads := make([]float64, n)
	for r := range states {
		states[r] = NewInformStateOn(table, Rank(r), &cfg, SeededRNG(cfg.Seed))
		loads[r] = float64(r % 3)
	}
	const ave = 1.5
	known := func() []int {
		out := make([]int, n)
		for r, st := range states {
			out[r] = st.Knowledge().Len()
		}
		return out
	}
	// The reference walk copies each message as it is sent.
	type sent struct {
		to  Rank
		msg InformMsg
	}
	var copies []sent
	for r, st := range states {
		st.StartTrial(1)
		for _, s := range st.Begin(ave, loads[r]) {
			copies = append(copies, sent{s.To, *s.Msg})
		}
	}
	for head := 0; head < len(copies); head++ {
		more, _ := states[copies[head].to].Receive(copies[head].msg)
		for _, s := range more {
			copies = append(copies, sent{s.To, *s.Msg})
		}
	}
	want := known()

	var queue []Send
	stage := func() {
		q := queue[:0]
		for r, st := range states {
			st.StartTrial(1)
			q = append(q, st.Begin(ave, loads[r])...)
		}
		for head := 0; head < len(q); head++ {
			more, _ := states[q[head].To].Receive(*q[head].Msg)
			q = append(q, more...)
		}
		queue = q
	}
	stage()
	if len(queue) != len(copies) {
		t.Fatalf("the walk by pointer sent %d messages, the walk that copies at send %d", len(queue), len(copies))
	}
	for r, got := range known() {
		if got != want[r] {
			t.Fatalf("rank %d learned %d ranks walked by pointer, %d copied at send", r, got, want[r])
		}
	}
	if allocs := testing.AllocsPerRun(20, stage); allocs != 0 {
		t.Errorf("a %d-rank gossip stage allocates %v times, want 0", n, allocs)
	}
}

// TestFanOutDoesNotAllocate: once the arena is warm, receiving a
// snapshot that triggers a fan-out allocates nothing — the merge is a
// bitset union and the payload a copy into the arena.
func TestFanOutDoesNotAllocate(t *testing.T) {
	const numRanks = 4096
	cfg := Tempered()
	table := NewLoadTable(numRanks)
	a := NewInformStateOn(table, 1, &cfg, SeededRNG(cfg.Seed))
	b := NewInformStateOn(table, 2, &cfg, SeededRNG(cfg.Seed))
	msg := a.Begin(1, 0.5)[0].Msg
	allocs := testing.AllocsPerRun(100, func() {
		b.Reset()
		if sends, added := b.Receive(*msg); added != 1 || len(sends) != cfg.Fanout {
			t.Fatalf("Receive added %d and sent %d, want 1 and %d", added, len(sends), cfg.Fanout)
		}
	})
	if allocs != 0 {
		t.Errorf("Receive of a snapshot with a fan-out: %v allocations, want 0", allocs)
	}
}

// Package sinks keep the benchmarked calls from being optimized away.
var (
	sinkInt   int
	sinkSends []Send
)

// benchRanks is the paper's scale; benchKnown the underloaded set of its
// §V-B case (all but the 16 loaded ranks), the size every knowledge
// converges to there.
const (
	benchRanks = 4096
	benchKnown = benchRanks - 16
)

func BenchmarkKnowledgeMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	table := NewLoadTable(benchRanks)
	src := newKnowledgeOn(table)
	src.Merge(randomLog(rng, benchRanks, benchKnown, func(Rank) float64 { return rng.Float64() }))
	payload := snapshotOf(src)
	// novel: every entry of the payload is new — the first message a rank
	// hears. redundant: none is — the steady state of rounds 4 to 10.
	b.Run("novel", func(b *testing.B) {
		k := newKnowledgeOn(table)
		for i := 0; i < b.N; i++ {
			k.Reset()
			sinkInt = k.merge(payload)
		}
	})
	b.Run("redundant", func(b *testing.B) {
		k := newKnowledgeOn(table)
		k.merge(payload)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkInt = k.merge(payload)
		}
	})
}

// BenchmarkInformTrialStart is what a rank pays to begin a trial with
// the knowledge of the previous one still in its state: re-point the
// generator, clear the gossip state, seed the first round.
func BenchmarkInformTrialStart(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	cfg := Tempered()
	st := NewInformState(7, benchRanks, &cfg, SeededRNG(cfg.Seed))
	st.Receive(InformMsg{Round: cfg.Rounds, Entries: randomLog(rng, benchRanks, benchKnown, func(Rank) float64 { return rng.Float64() })})
	full := slices.Clone(st.know.member)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Put the previous trial's knowledge back: a 512-byte bitset.
		copy(st.know.member, full)
		st.know.lo, st.know.hi, st.know.n = 0, len(full), benchKnown
		st.StartTrial(1 + i%cfg.Trials)
		sinkSends = st.Begin(1, 0.5)
	}
}
