package core

import "math/rand"

// InformMsg is the payload of one gossip message of Algorithm 1: the
// sender's current knowledge of underloaded ranks plus the round number.
type InformMsg struct {
	Round   int
	Entries []RankLoad
}

// Send is a directed gossip message produced by the inform state machine;
// the caller (synchronous simulator or asynchronous runtime) is
// responsible for delivering it.
type Send struct {
	To  Rank
	Msg InformMsg
}

// InformState is the per-rank state machine of the inform/gossip stage
// (Algorithm 1). It is transport-agnostic: Begin and Receive return the
// messages to send, and the embedding layer delivers them — synchronously
// in the LBAF simulator, via active messages under termination detection
// in the AMT runtime.
type InformState struct {
	self      Rank
	numRanks  int
	cfg       *Config
	rng       *rand.Rand
	know      *Knowledge
	forwarded []bool // by round

	// Reused buffers: sendBuf backs the slices returned by Begin and
	// Receive (overwritten by the next call); permBuf serves the
	// capped-payload down-sampling and is consumed within one call.
	sendBuf []Send
	permBuf []int
}

// NewInformState creates the gossip state for one rank. The rng must be
// private to the rank for reproducibility.
func NewInformState(self Rank, numRanks int, cfg *Config, rng *rand.Rand) *InformState {
	return &InformState{
		self:      self,
		numRanks:  numRanks,
		cfg:       cfg,
		rng:       rng,
		know:      NewKnowledge(numRanks),
		forwarded: make([]bool, cfg.Rounds+2),
	}
}

// Knowledge exposes the rank's accumulated view S^p / LOAD^p.
func (st *InformState) Knowledge() *Knowledge { return st.know }

// Reset clears the knowledge and forwarding state for a fresh iteration.
func (st *InformState) Reset() {
	st.know.Reset()
	for i := range st.forwarded {
		st.forwarded[i] = false
	}
}

// StartTrial prepares the rank for trial number trial of a refinement
// without reallocating the state machine: it re-points the private
// generator at the trial's gossip stream, derived from cfg.Seed, the
// trial and the rank, and clears all gossip state. Both drivers — the
// synchronous engine and the distributed balancer — begin every trial
// here, so they draw the same sequence, bit-identical to a state
// freshly constructed over a generator of that stream.
func (st *InformState) StartTrial(trial int) {
	reseed(st.rng, st.cfg.Seed, int64(trial), int64(st.self), 0x60551f)
	st.Reset()
}

// Begin implements INFORM (Algorithm 1 lines 5–14): if this rank is
// underloaded it records itself and seeds f round-1 messages to random
// ranks. The returned sends must be delivered by the caller; the slice
// is reused by the state's next Begin or Receive, so consume or copy it
// before driving this rank again.
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
	added = st.know.Merge(m.Entries)
	if m.Round >= st.cfg.Rounds {
		return nil, added
	}
	if st.forwarded[m.Round] || added == 0 {
		return nil, added
	}
	st.forwarded[m.Round] = true
	return st.fanOutAvoidKnown(m.Round + 1), added
}

// payload snapshots the knowledge to send, respecting the
// limited-information cap of cfg.MaxGossipEntries: an over-long
// knowledge list is down-sampled uniformly so message size stays
// bounded (footnote 2).
func (st *InformState) payload() []RankLoad {
	entries := st.know.Entries()
	max := st.cfg.MaxGossipEntries
	if max <= 0 || len(entries) <= max {
		return entries
	}
	if cap(st.permBuf) < len(entries) {
		st.permBuf = make([]int, len(entries))
	}
	perm := st.permBuf[:len(entries)]
	permInto(st.rng, perm)
	// The down-sampled payload must be freshly allocated: it rides in
	// messages that can be delivered after this state's next fan-out, so
	// unlike permBuf it cannot be reused.
	out := make([]RankLoad, max)
	for i, j := range perm[:max] {
		out[i] = entries[j]
	}
	return out
}

// fanOut picks f targets uniformly from all ranks except self (line 10).
func (st *InformState) fanOut(round int) []Send {
	if st.numRanks < 2 {
		return nil
	}
	entries := st.payload()
	st.sendBuf = st.sendBuf[:0]
	for i := 0; i < st.cfg.Fanout; i++ {
		t := Rank(st.rng.Intn(st.numRanks - 1))
		if t >= st.self {
			t++
		}
		st.sendBuf = append(st.sendBuf, Send{To: t, Msg: InformMsg{Round: round, Entries: entries}})
	}
	//lint:ignore scratchescape documented contract: the slice is valid until the next fanOut call
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
	entries := st.payload()
	st.sendBuf = st.sendBuf[:0]
	for i := 0; i < st.cfg.Fanout; i++ {
		t := st.sampleUnknown()
		st.sendBuf = append(st.sendBuf, Send{To: t, Msg: InformMsg{Round: round, Entries: entries}})
	}
	//lint:ignore scratchescape documented contract: the slice is valid until the next fanOut call
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
