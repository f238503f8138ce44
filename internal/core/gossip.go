package core

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// InformMsg is the payload of one gossip message of Algorithm 1: the
// sender's current knowledge of underloaded ranks plus the round number.
//
// The knowledge has one of two forms. A state's own fan-outs carry a
// snapshot: a copy of the sender's membership bitset, the table its
// loads live in, and its count. Entries is the explicit form, carried
// by a message decoded from another node, by a payload capped by
// Config.MaxGossipEntries, and by messages built by hand. Len and Rows
// read either form the same way.
//
// A fan-out travels as a pointer to the sending state's slot for its
// round (see InformState.payload): every send of the fan-out, and every
// retry of one, shares it, and it stays unchanged until the state's
// Reset. A receiver reads it and must not write it or keep it.
type InformMsg struct {
	Round   int
	Entries []RankLoad
	known   snapshot
}

// snapshot is the bitset form of a payload: words are the sender's
// bitset words [base, base+len(words)), outside which it had no member.
// table is nil for a message in explicit form.
type snapshot struct {
	words       []uint64
	table       *LoadTable
	base, count int32
}

// Len returns the number of entries the message carries.
func (m InformMsg) Len() int {
	if m.known.table != nil {
		return int(m.known.count)
	}
	return len(m.Entries)
}

// Rows calls row for the message's entries [lo, hi) — in rank order for
// a snapshot, in list order for the explicit form — so an encoder walks
// both forms alike and a snapshot is never turned into a list.
func (m InformMsg) Rows(lo, hi int, row func(RankLoad)) {
	s := m.known
	if s.table == nil {
		for _, e := range m.Entries[lo:hi] {
			row(e)
		}
		return
	}
	i := 0
	for w, word := range s.words {
		for ; word != 0; word &= word - 1 {
			if i == hi {
				return
			}
			if i >= lo {
				r := Rank((int(s.base)+w)<<6 | bits.TrailingZeros64(word))
				row(RankLoad{Rank: r, Load: s.table.load(r)})
			}
			i++
		}
	}
}

// Send is a directed gossip message produced by the inform state machine;
// the caller (synchronous simulator or asynchronous runtime) is
// responsible for delivering it. Msg points at the sender's slot for
// the message's round, valid until the sender's Reset.
type Send struct {
	To  Rank
	Msg *InformMsg
}

// InformState is the per-rank state machine of the inform/gossip stage
// (Algorithm 1). It is transport-agnostic: Begin and Receive return the
// messages to send, and the embedding layer delivers them — synchronously
// in the LBAF simulator, via active messages under termination detection
// in the AMT runtime. A state is built once per rank, from what never
// changes, and kept by its driver for life; it takes each trial's Config
// at StartTrial.
type InformState struct {
	// What Receive reads on every message, inline and together: the
	// knowledge itself, cfg.Rounds, and a mask whose bit r says round r
	// has been forwarded (Validate bounds Rounds by MaxRounds for it).
	know      Knowledge
	rounds    int
	forwarded uint64

	self     Rank
	numRanks int
	cfg      *Config
	rng      *rand.Rand

	// Reused buffers: sendBuf backs the slices returned by Begin and
	// Receive (overwritten by the next call); out holds the stage's
	// payloads, out[r] the one of round r, and arena the bitsets of their
	// snapshots, truncated at Reset; permBuf and rankBuf serve the
	// capped-payload down-sampling and are consumed within one call.
	sendBuf []Send
	out     []InformMsg
	arena   []uint64
	permBuf []int
	rankBuf []Rank
}

// NewInformState creates the gossip state for one rank over a private
// load table, configured by cfg as StartTrial configures a state but on
// the generator as given. The rng must be private to the rank for
// reproducibility.
func NewInformState(self Rank, numRanks int, cfg *Config, rng *rand.Rand) *InformState {
	st := NewInformStateOn(NewLoadTable(numRanks), self, rng)
	st.configure(cfg)
	return st
}

// NewInformStateOn creates the gossip state for one rank over the table
// every gossip state of its node shares; only states on one table can
// merge each other's snapshots. The rng must be private to the rank. The
// state takes its Config at StartTrial, which must precede its first
// Begin or Receive.
func NewInformStateOn(table *LoadTable, self Rank, rng *rand.Rand) *InformState {
	return &InformState{
		know:     *newKnowledgeOn(table),
		self:     self,
		numRanks: len(table.slot),
		rng:      rng,
	}
}

// Knowledge exposes the rank's accumulated view S^p / LOAD^p.
func (st *InformState) Knowledge() *Knowledge { return &st.know }

// Reset clears the knowledge and forwarding state for a fresh iteration.
func (st *InformState) Reset() {
	st.know.Reset()
	st.arena = st.arena[:0]
	st.forwarded = 0
}

// StartTrial prepares the rank for trial number trial of a refinement
// under cfg without reallocating the state machine: it points the state
// at cfg, re-points the private generator at the trial's gossip stream,
// derived from cfg.Seed, the trial and the rank, and clears all gossip
// state. Both drivers — the synchronous engine and the distributed
// balancer — begin every trial here, so they draw the same sequence,
// bit-identical to a state freshly constructed over a generator of that
// stream. cfg.Rounds must be in [1, MaxRounds], as Validate checks.
func (st *InformState) StartTrial(cfg *Config, trial int) {
	st.configure(cfg)
	Reseed(st.rng, cfg.Seed, int64(trial), int64(st.self), 0x60551f)
	st.Reset()
}

// configure points the state at cfg and caches its Rounds, growing the
// payload slots to one per round when Rounds grew. The slots are only
// grown between stages, so no message in flight points at them.
func (st *InformState) configure(cfg *Config) {
	if cfg.Rounds < 1 || cfg.Rounds > MaxRounds {
		panic(fmt.Sprintf("core: InformState with %d rounds, want in [1, MaxRounds (%d)]", cfg.Rounds, MaxRounds))
	}
	st.cfg, st.rounds = cfg, cfg.Rounds
	if len(st.out) < cfg.Rounds+1 {
		st.out = make([]InformMsg, cfg.Rounds+1)
	}
}

// Begin implements INFORM (Algorithm 1 lines 5–14): if this rank is
// underloaded it records itself — the one write of its table slot in the
// stage — and seeds f round-1 messages to random ranks. The returned
// sends must be delivered by the caller; the slice is reused by the
// state's next Begin or Receive, so consume or copy it before driving
// this rank again.
func (st *InformState) Begin(ave, own float64) []Send {
	if own >= ave {
		return nil
	}
	st.know.Add(st.self, own)
	return st.fanOut(1)
}

// Receive implements INFORMHANDLER (Algorithm 1 lines 15–25): merge the
// incoming knowledge and, if more rounds remain, forward to f random
// ranks not already known to be underloaded. A rank forwards a given
// round at most once and only when the message taught it something new
// (the standard epidemic suppression that keeps message volume near P·f·k
// instead of the f^k of Algorithm 1 read literally); later or redundant
// messages of the same round only merge. It returns the number
// of newly learned entries alongside the messages to send; the sends
// slice is reused by the state's next Begin or Receive, so consume or
// copy it before driving this rank again.
func (st *InformState) Receive(m InformMsg) (sends []Send, added int) {
	added = st.know.merge(&m)
	round := uint64(1) << uint(m.Round)
	if m.Round >= st.rounds || added == 0 || st.forwarded&round != 0 {
		return nil, added
	}
	st.forwarded |= round
	return st.fanOutAvoidKnown(m.Round + 1), added
}

// payload builds the message of one fan-out in the state's slot for
// the round and returns the slot. Normally it is a snapshot: the
// bitset's occupied span copied into the arena. Under the
// limited-information cap of cfg.MaxGossipEntries an over-long
// knowledge is down-sampled uniformly into an explicit list so message
// size stays bounded (footnote 2).
//
// A state fans out at most once per round — Begin is round 1 and the
// forwarded mask admits each later round once — so nothing rewrites a
// slot, its list or its snapshot's words before Reset. By then the
// stage has quiesced: every copy of the message was received (and
// encoded, if it crossed a socket), and a fault plan's retries of it
// were acknowledged. Its fan-outs therefore send the slot's address,
// and the slots are reused from stage to stage.
func (st *InformState) payload(round int) *InformMsg {
	k := &st.know
	slot := &st.out[round]
	max := st.cfg.MaxGossipEntries
	if max <= 0 || k.n <= max {
		span := k.member[k.lo:k.hi]
		if st.arena == nil {
			st.arena = make([]uint64, 0, len(span)+(st.rounds-1)*len(k.member))
		}
		at := len(st.arena)
		st.arena = append(st.arena, span...)
		words := st.arena[at:len(st.arena):len(st.arena)]
		*slot = InformMsg{Round: round, known: snapshot{words: words, table: k.table, base: int32(k.lo), count: int32(k.n)}}
		return slot
	}
	st.rankBuf = k.appendMembers(st.rankBuf[:0])
	if cap(st.permBuf) < k.n {
		st.permBuf = make([]int, k.n)
	}
	perm := st.permBuf[:k.n]
	permInto(st.rng, perm)
	entries := slot.Entries[:0]
	if cap(entries) < max {
		entries = make([]RankLoad, 0, max)
	}
	for _, j := range perm[:max] {
		r := st.rankBuf[j]
		entries = append(entries, RankLoad{Rank: r, Load: k.table.load(r)})
	}
	*slot = InformMsg{Round: round, Entries: entries}
	return slot
}

// fanOut picks f targets uniformly from all ranks except self (line 10).
func (st *InformState) fanOut(round int) []Send {
	if st.numRanks < 2 {
		return nil
	}
	msg := st.payload(round)
	st.sendBuf = st.sendBuf[:0]
	if st.sendBuf == nil {
		st.sendBuf = make([]Send, 0, st.cfg.Fanout)
	}
	for i := 0; i < st.cfg.Fanout; i++ {
		t := Rank(st.rng.Intn(st.numRanks - 1))
		if t >= st.self {
			t++
		}
		st.sendBuf = append(st.sendBuf, Send{To: t, Msg: msg})
	}
	return st.sendBuf
}

// fanOutAvoidKnown picks f targets from P \ S^p (lines 20–21), preferring
// ranks not yet known to be underloaded so knowledge spreads toward
// overloaded ranks. Rejection sampling is used with a bounded number of
// attempts; if nearly every rank is already known, it falls back to
// uniform sampling so the fanout is still honored.
func (st *InformState) fanOutAvoidKnown(round int) []Send {
	if st.numRanks < 2 {
		return nil
	}
	msg := st.payload(round)
	st.sendBuf = st.sendBuf[:0]
	if st.sendBuf == nil {
		st.sendBuf = make([]Send, 0, st.cfg.Fanout)
	}
	for i := 0; i < st.cfg.Fanout; i++ {
		t := st.sampleUnknown()
		st.sendBuf = append(st.sendBuf, Send{To: t, Msg: msg})
	}
	return st.sendBuf
}

func (st *InformState) sampleUnknown() Rank {
	const attempts = 16
	for i := 0; i < attempts; i++ {
		t := Rank(st.rng.Intn(st.numRanks - 1))
		if t >= st.self {
			t++
		}
		if !st.know.Contains(t) {
			return t
		}
	}
	// Nearly everything is known: fall back to a uniform choice.
	t := Rank(st.rng.Intn(st.numRanks - 1))
	if t >= st.self {
		t++
	}
	return t
}
