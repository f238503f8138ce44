package serve

import (
	"fmt"
	"sort"

	"temperedlb/internal/core"
)

// Kind selects one of the deterministic workload generators. Each kind
// produces a different flavour of time-varying imbalance, so the
// trigger policies can be compared on the regimes the LB-invocation
// literature cares about (arXiv:2104.01688 §V).
type Kind int

const (
	// KindRamp grows the hot ranks' loads linearly: imbalance drifts
	// upward phase over phase, the regime where the trend term of the
	// predictor (arXiv:1909.07168) pays off.
	KindRamp Kind = iota
	// KindDiurnal oscillates loads on a triangle wave, hot ranks in
	// anti-phase with the rest: imbalance rises and falls periodically.
	KindDiurnal
	// KindBurst keeps loads steady except for short seeded spikes that
	// multiply one home-rank's items severalfold: long quiet stretches
	// punctuated by sudden imbalance, the worst case for always-LB.
	KindBurst
	// KindChurn gives items finite lifetimes — arrivals and departures
	// shift the load distribution continuously.
	KindChurn
)

// String names the kind as accepted by ParseKind.
func (k Kind) String() string {
	switch k {
	case KindRamp:
		return "ramp"
	case KindDiurnal:
		return "diurnal"
	case KindBurst:
		return "burst"
	case KindChurn:
		return "churn"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind parses a scenario name: ramp | diurnal | burst | churn.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "ramp":
		return KindRamp, nil
	case "diurnal":
		return KindDiurnal, nil
	case "burst":
		return KindBurst, nil
	case "churn":
		return KindChurn, nil
	}
	return 0, fmt.Errorf("serve: unknown scenario %q (want ramp, diurnal, burst or churn)", s)
}

// Spec parameterizes a scenario. Every process of a job must construct
// its scenario from an identical Spec: the generator is a pure function
// of the spec, so the resulting event stream — and therefore every
// trigger input — is identical everywhere without any coordination.
type Spec struct {
	Kind   Kind
	Ranks  int
	Phases int
	// Items is the number of logical tasks generated over the whole run.
	Items int
	Seed  int64
	// Hot is the number of ranks that home the skewed share of the
	// items (default max(1, Ranks/4)).
	Hot int
}

func (s Spec) withDefaults() Spec {
	if s.Hot <= 0 {
		s.Hot = s.Ranks / 4
		if s.Hot < 1 {
			s.Hot = 1
		}
	}
	return s
}

// validate checks the spec as given: Hot 0 selects the default.
func (s Spec) validate() error {
	switch {
	case s.Ranks < 1:
		return fmt.Errorf("ranks %d: want >= 1", s.Ranks)
	case s.Phases < 1:
		return fmt.Errorf("phases %d: want >= 1", s.Phases)
	case s.Items < 1:
		return fmt.Errorf("items %d: want >= 1", s.Items)
	case s.Hot < 0 || s.Hot > s.Ranks:
		return fmt.Errorf("hot %d: want in [0,%d]", s.Hot, s.Ranks)
	}
	return nil
}

// Item is one logical task of the stream: homed on a rank, alive for
// [Start, End) phases, with a per-phase load curve determined by the
// scenario kind. The curve is a function of the item and the phase
// only, never of current placement, so whichever rank hosts the item
// can compute its load locally and identically.
type Item struct {
	Home       int
	Start, End int
	Base       float64
	Slope      float64 // ramp: fractional load growth per phase
	Offset     int     // diurnal: phase shift into the triangle wave
}

// burstWindow multiplies the loads of every item homed on Victim by
// Mult during phases [Start, End).
type burstWindow struct {
	Start, End int
	Victim     int
	Mult       float64
}

// Scenario is a fully precomputed event stream: items with homes,
// lifetimes and load curves, plus (for KindBurst) the spike windows.
// Construction is deterministic in the Spec — two processes that build
// the same Spec hold bit-identical scenarios.
type Scenario struct {
	Spec   Spec
	items  []Item
	bursts []burstWindow
	period int // diurnal wave period

	// arrivals holds every item index once, grouped by home rank; rank
	// r's group is arrivals[first[r]:first[r+1]], in creation order:
	// ascending by (Start, index). The service loop creates each rank's
	// objects in exactly this order, so object ids are reproducible.
	arrivals []int
	first    []int
}

// NewScenario builds the deterministic event stream for a spec.
func NewScenario(spec Spec) (*Scenario, error) {
	if err := spec.validate(); err != nil {
		return nil, fmt.Errorf("serve: scenario: %w", err)
	}
	spec = spec.withDefaults()
	sc := &Scenario{Spec: spec}
	sc.period = spec.Phases / 4
	if sc.period < 8 {
		sc.period = 8
	}

	// Item construction draws from per-item seeded streams, so the
	// generator is insensitive to evaluation order and future spec
	// fields can add streams without disturbing existing ones. One
	// generator is reseeded per stream: the same dice as a fresh one.
	rng := core.SeededRNG(spec.Seed, 0, 0x5ce)
	sc.items = make([]Item, spec.Items)
	for i := range sc.items {
		core.Reseed(rng, spec.Seed, int64(i), 0x5ce)
		it := Item{Start: 0, End: spec.Phases}
		// Placement: three quarters of the items cluster on the hot
		// ranks, the rest spread uniformly — the clustered placement of
		// the batch harness, extended in time.
		if rng.Float64() < 0.75 {
			it.Home = int(rng.Int63n(int64(spec.Hot)))
		} else {
			it.Home = int(rng.Int63n(int64(spec.Ranks)))
		}
		it.Base = 1 + 4*rng.Float64()
		switch spec.Kind {
		case KindRamp:
			if it.Home < spec.Hot {
				it.Slope = 0.1 + 0.2*rng.Float64()
			}
		case KindDiurnal:
			// Hot-rank items peak together; the rest are in anti-phase,
			// so the wave moves load between the two groups.
			if it.Home < spec.Hot {
				it.Offset = 0
			} else {
				it.Offset = sc.period / 2
			}
		case KindChurn:
			it.Start = int(rng.Int63n(int64(3*spec.Phases/4 + 1)))
			life := spec.Phases/6 + int(rng.Int63n(int64(spec.Phases/3+1)))
			if life < 1 {
				life = 1
			}
			it.End = it.Start + life
			if it.End > spec.Phases {
				it.End = spec.Phases
			}
		}
		sc.items[i] = it
	}

	if spec.Kind == KindBurst {
		n := spec.Phases / 12
		if n < 1 {
			n = 1
		}
		sc.bursts = make([]burstWindow, n)
		for b := range sc.bursts {
			core.Reseed(rng, spec.Seed, int64(b), 0xb1257)
			w := burstWindow{
				Victim: int(rng.Int63n(int64(spec.Hot))),
				Mult:   4 + 4*rng.Float64(),
			}
			// Spread the windows over the run, skipping the first few
			// phases so the predictor has a baseline to contrast.
			span := spec.Phases / n
			w.Start = b*span + span/3
			w.End = w.Start + 2 + int(rng.Int63n(3))
			if w.End > spec.Phases {
				w.End = spec.Phases
			}
			sc.bursts[b] = w
		}
	}

	// Two stable counting sorts of the item indices — by Start, then by
	// Home — leave each rank's items together in (Start, index) order:
	// O(Items + Phases + Ranks).
	idx := make([]int, spec.Items)
	for i := range idx {
		idx[i] = i
	}
	byStart, _ := countingSort(idx, spec.Phases, func(i int) int { return sc.items[i].Start })
	sc.arrivals, sc.first = countingSort(byStart, spec.Ranks, func(i int) int { return sc.items[i].Home })
	return sc, nil
}

// countingSort returns idx stably sorted by key, which lies in [0, keys),
// and the offset of each key's run: key k's indices are
// sorted[first[k]:first[k+1]].
func countingSort(idx []int, keys int, key func(i int) int) (sorted, first []int) {
	first = make([]int, keys+1)
	for _, i := range idx {
		first[key(i)+1]++
	}
	for k := 1; k <= keys; k++ {
		first[k] += first[k-1]
	}
	next := append([]int(nil), first[:keys]...)
	sorted = make([]int, len(idx))
	for _, i := range idx {
		k := key(i)
		sorted[next[k]] = i
		next[k]++
	}
	return sorted, first
}

// NumItems returns the total item count.
func (sc *Scenario) NumItems() int { return len(sc.items) }

// Item returns item i.
func (sc *Scenario) Item(i int) Item { return sc.items[i] }

// Arrivals returns the indices of the items a rank must create, in
// creation order: items arriving at earlier phases first, ties by item
// index. ArrivalsAt restricts to one phase. The slice is a read-only
// view into the scenario, shared by every caller.
func (sc *Scenario) Arrivals(rank int) []int {
	lo, hi := sc.first[rank], sc.first[rank+1]
	return sc.arrivals[lo:hi:hi]
}

// ArrivalsAt returns the items a rank creates at the given phase, in
// index order: a read-only sub-view of Arrivals(rank), found by binary
// search, so asking costs no allocation.
func (sc *Scenario) ArrivalsAt(rank, phase int) []int {
	all := sc.Arrivals(rank)
	lo := sort.Search(len(all), func(j int) bool { return sc.items[all[j]].Start >= phase })
	hi := lo + sort.Search(len(all)-lo, func(j int) bool { return sc.items[all[lo+j]].Start > phase })
	return all[lo:hi:hi]
}

// Alive reports whether item i does work in the given phase.
func (sc *Scenario) Alive(i, phase int) bool {
	it := sc.items[i]
	return phase >= it.Start && phase < it.End
}

// Load returns item i's load in the given phase (0 when not alive).
// The curve uses only arithmetic whose result is fully determined by
// IEEE-754 — in particular a triangle wave rather than a sine, so the
// stream is reproducible across platforms and golden files hold.
func (sc *Scenario) Load(i, phase int) float64 {
	it := sc.items[i]
	if phase < it.Start || phase >= it.End {
		return 0
	}
	l := it.Base
	switch sc.Spec.Kind {
	case KindRamp:
		l *= 1 + it.Slope*float64(phase-it.Start)
	case KindDiurnal:
		l *= 0.25 + 1.5*triangle(phase+it.Offset, sc.period)
	case KindBurst:
		for _, w := range sc.bursts {
			if it.Home == w.Victim && phase >= w.Start && phase < w.End {
				l *= w.Mult
			}
		}
	}
	return l
}

// triangle is a [0,1] triangle wave of the given period: 0 at phase 0,
// 1 at period/2, back to 0 at period.
func triangle(phase, period int) float64 {
	pos := phase % period
	t := float64(pos) / float64(period)
	if t < 0.5 {
		return 2 * t
	}
	return 2 - 2*t
}
