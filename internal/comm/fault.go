package comm

import (
	"fmt"
	"maps"
	"sort"
	"strconv"
	"strings"
	"time"
)

// FaultSpec is the kind-agnostic, flag-level description of a fault
// plan: what users type after -faults. It describes the faults and
// nothing else; the runtime layer decides which message kinds the scalar
// probabilities apply to (protocol control traffic — termination tokens,
// acks, collectives — stays reliable) and derives its retransmission
// pacing from the delays; the transport consumes the spec via Plan.
//
// The zero value is the empty spec: no faults.
type FaultSpec struct {
	// Seed drives every fault decision. Decisions are a pure function of
	// (Seed, sender, per-sender transport sequence number, decision
	// salt), so a fixed spec yields the same drop/duplicate/delay choice
	// for the k-th message a rank sends, independent of scheduling.
	Seed int64

	// Drop and Dup are per-message probabilities in [0,1) of dropping a
	// message, respectively of delivering one extra copy.
	Drop, Dup float64

	// DelayMin and DelayMax bound the random extra delivery latency each
	// copy of a message draws; per-sender FIFO is deliberately not
	// preserved under it. DelayMax==DelayMin pins a constant delay.
	DelayMin, DelayMax time.Duration

	// SlowRanks adds a fixed straggler penalty to every delivery sent by
	// or destined to the listed ranks, on top of the window above.
	SlowRanks map[int]time.Duration
}

// Empty reports whether the spec injects no faults at all.
func (sp FaultSpec) Empty() bool {
	return sp.Drop == 0 && sp.Dup == 0 && sp.DelayMin == 0 && sp.DelayMax == 0 &&
		len(sp.SlowRanks) == 0
}

// Validate checks the spec's ranges. Rank bounds are checked against n
// when n > 0 (pass 0 when the rank count is not known yet).
func (sp FaultSpec) Validate(n int) error {
	switch {
	case sp.Drop < 0 || sp.Drop >= 1:
		return fmt.Errorf("comm: fault drop probability must be in [0,1), got %g", sp.Drop)
	case sp.Dup < 0 || sp.Dup >= 1:
		return fmt.Errorf("comm: fault dup probability must be in [0,1), got %g", sp.Dup)
	case sp.DelayMin < 0 || sp.DelayMax < 0:
		return fmt.Errorf("comm: fault delays must be >= 0, got [%v,%v]", sp.DelayMin, sp.DelayMax)
	case sp.DelayMax < sp.DelayMin:
		return fmt.Errorf("comm: fault delay window inverted: [%v,%v]", sp.DelayMin, sp.DelayMax)
	}
	for r, d := range sp.SlowRanks {
		if r < 0 || (n > 0 && r >= n) {
			return fmt.Errorf("comm: slow rank %d out of range", r)
		}
		if d < 0 {
			return fmt.Errorf("comm: slow rank %d penalty must be >= 0, got %v", r, d)
		}
	}
	return nil
}

// Plan compiles the spec into a transport fault plan. Drop and Dup apply
// only to the listed kinds; the delay window and straggler penalties
// apply to every kind (latency hits control traffic too — the protocols
// must tolerate that, and the delay-only chaos tests prove they do).
func (sp FaultSpec) Plan(kinds ...Kind) *FaultPlan {
	p := &FaultPlan{
		Seed:      sp.Seed,
		DelayMin:  sp.DelayMin,
		DelayMax:  sp.DelayMax,
		SlowRanks: maps.Clone(sp.SlowRanks),
	}
	for _, k := range kinds {
		p.Drop[k] = sp.Drop
		p.Dup[k] = sp.Dup
	}
	return p
}

// String renders the spec in the -faults flag grammar.
func (sp FaultSpec) String() string {
	var parts []string
	add := func(s string) { parts = append(parts, s) }
	if sp.Drop > 0 {
		add(fmt.Sprintf("drop=%g", sp.Drop))
	}
	if sp.Dup > 0 {
		add(fmt.Sprintf("dup=%g", sp.Dup))
	}
	if sp.DelayMin > 0 {
		add(fmt.Sprintf("delaymin=%v", sp.DelayMin))
	}
	if sp.DelayMax > 0 {
		add(fmt.Sprintf("delay=%v", sp.DelayMax))
	}
	if sp.Seed != 0 {
		add(fmt.Sprintf("seed=%d", sp.Seed))
	}
	ranks := make([]int, 0, len(sp.SlowRanks))
	for r := range sp.SlowRanks {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		add(fmt.Sprintf("slow=%d:%v", r, sp.SlowRanks[r]))
	}
	return strings.Join(parts, ",")
}

// ParseFaultSpec parses the -faults flag grammar: comma-separated
// key=value pairs from
//
//	drop=0.01 dup=0.01 delay=5ms delaymin=1ms seed=42
//	slow=3:2ms (repeatable)
//
// An empty string parses to the empty spec. Ranges are validated
// (without rank bounds; callers with a known rank count should
// re-Validate).
func ParseFaultSpec(s string) (FaultSpec, error) {
	var sp FaultSpec
	s = strings.TrimSpace(s)
	if s == "" {
		return sp, nil
	}
	for _, field := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return sp, fmt.Errorf("comm: fault spec %q: want key=value", field)
		}
		var err error
		switch key {
		case "drop":
			sp.Drop, err = strconv.ParseFloat(val, 64)
		case "dup":
			sp.Dup, err = strconv.ParseFloat(val, 64)
		case "delay":
			sp.DelayMax, err = time.ParseDuration(val)
		case "delaymin":
			sp.DelayMin, err = time.ParseDuration(val)
		case "seed":
			sp.Seed, err = strconv.ParseInt(val, 10, 64)
		case "slow":
			rankStr, durStr, ok := strings.Cut(val, ":")
			if !ok {
				return sp, fmt.Errorf("comm: fault spec slow=%q: want rank:duration", val)
			}
			var r int
			var d time.Duration
			if r, err = strconv.Atoi(rankStr); err == nil {
				if d, err = time.ParseDuration(durStr); err == nil {
					if sp.SlowRanks == nil {
						sp.SlowRanks = make(map[int]time.Duration)
					}
					sp.SlowRanks[r] = d
				}
			}
		default:
			return sp, fmt.Errorf("comm: fault spec: unknown key %q", key)
		}
		if err != nil {
			return sp, fmt.Errorf("comm: fault spec %q: %v", field, err)
		}
	}
	return sp, sp.Validate(0)
}

// FaultPlan is the compiled fault schedule: per-kind drop and
// duplication probabilities plus a delivery delay window and per-rank
// straggler penalties. decide is the only place a fault decision is
// taken; Network.Send asks it for every message once a plan is
// installed (SetFaultPlan, before any traffic flows; a nil plan — the
// default — costs Send one pointer load).
//
// Dropping or duplicating a kind is only safe when the layer above
// recovers: the amt runtime retransmits and deduplicates its epoch
// kinds and refuses plans that touch its control kinds.
type FaultPlan struct {
	Seed               int64
	Drop, Dup          [MaxKinds]float64
	DelayMin, DelayMax time.Duration
	SlowRanks          map[int]time.Duration
}

// active reports whether the plan can affect any delivery at all.
func (p *FaultPlan) active() bool {
	if p == nil {
		return false
	}
	if p.DelayMin > 0 || p.DelayMax > 0 || len(p.SlowRanks) > 0 {
		return true
	}
	for k := range p.Drop {
		if p.Drop[k] > 0 || p.Dup[k] > 0 {
			return true
		}
	}
	return false
}

func (p *FaultPlan) validate() {
	for k := range p.Drop {
		if p.Drop[k] < 0 || p.Drop[k] >= 1 || p.Dup[k] < 0 || p.Dup[k] >= 1 {
			panic(fmt.Sprintf("comm: SetFaultPlan: kind %d probabilities out of [0,1)", k))
		}
	}
	if p.DelayMin < 0 || p.DelayMax < p.DelayMin {
		panic(fmt.Sprintf("comm: SetFaultPlan: bad delay window [%v,%v]", p.DelayMin, p.DelayMax))
	}
	for r, d := range p.SlowRanks {
		if d < 0 {
			panic(fmt.Sprintf("comm: SetFaultPlan: slow rank %d penalty %v < 0", r, d))
		}
	}
}

// clone deep-copies the plan so later caller mutations cannot race Send.
func (p *FaultPlan) clone() *FaultPlan {
	c := *p
	c.SlowRanks = maps.Clone(p.SlowRanks)
	return &c
}

// Decision salts: each fault question about the same message draws an
// independent word from the hash.
const (
	saltDrop uint64 = 1 + iota
	saltDup
	saltDelay
	saltDupDelay
)

// faultWord hashes (seed, sender, per-sender sequence, salt) into a
// uniform 64-bit word — a stateless splitmix-style finalizer, so
// concurrent senders need no shared RNG state and a retransmission
// (which gets a fresh transport sequence number) gets a fresh decision.
func faultWord(seed int64, from int, seq int64, salt uint64) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(from+1)*0xff51afd7ed558ccd ^
		uint64(seq)*0xc4ceb9fe1a85ec53 ^ salt*0x2545f4914f6cdd1d
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// faultUniform maps a fault word to [0,1).
func faultUniform(seed int64, from int, seq int64, salt uint64) float64 {
	return float64(faultWord(seed, from, seq, salt)>>11) / (1 << 53)
}

// delay draws the delivery delay for one copy of a message: a uniform
// draw from the window plus the straggler penalties of the endpoints.
func (p *FaultPlan) delay(from, to int, seq int64, salt uint64) time.Duration {
	d := p.DelayMin
	if w := p.DelayMax - p.DelayMin; w > 0 {
		d += time.Duration(faultWord(p.Seed, from, seq, salt) % uint64(w))
	}
	if len(p.SlowRanks) > 0 {
		d += p.SlowRanks[from] + p.SlowRanks[to]
	}
	return d
}

// fate is a plan's decision for one message: lost, or delivered once —
// twice when Dup — each copy held back by its own delay.
type fate struct {
	Drop, Dup       bool
	Delay, DupDelay time.Duration
}

// decide returns the fate of the seq-th message (counting from 1, as
// Network.Send stamps Message.Seq) that rank from sends, addressed to
// rank to with kind k. It is a pure function: the dice are hashes of
// (Seed, from, seq), so concurrent senders share no fault state and a
// message's fate does not depend on scheduling.
func (p *FaultPlan) decide(from, to int, k Kind, seq int64) fate {
	if pr := p.Drop[k]; pr > 0 && faultUniform(p.Seed, from, seq, saltDrop) < pr {
		return fate{Drop: true}
	}
	f := fate{Delay: p.delay(from, to, seq, saltDelay)}
	if pr := p.Dup[k]; pr > 0 && faultUniform(p.Seed, from, seq, saltDup) < pr {
		f.Dup, f.DupDelay = true, p.delay(from, to, seq, saltDupDelay)
	}
	return f
}
