package serve

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Summary is the rank-identical view of one finished phase, assembled
// from one AllReduceMixed collective over [observed total, predicted
// total]. Because every field is a collective output (or configuration
// shared by every rank), a deterministic Trigger fed the phase-ordered
// sequence of Summaries reaches the same decision on every rank — the
// induction the service's determinism rests on (see the package doc).
type Summary struct {
	// Phase is the zero-based phase index.
	Phase int
	// Max and Avg are the observed per-rank load maximum and mean.
	Max, Avg float64
	// PredMax and PredAvg are the predictor's view of the next phase:
	// the maximum and mean of the per-rank predicted totals.
	PredMax, PredAvg float64
	// SinceLB counts phases since the balancer last ran (0 in the phase
	// right after an invocation; grows while skipping).
	SinceLB int
	// LBCost is the configured cost of one balancer invocation, in load
	// units — the currency the forecast criterion trades in.
	LBCost float64
}

// Imbalance is the observed I = max/avg − 1 (0 on an idle system).
func (s Summary) Imbalance() float64 {
	if s.Avg == 0 {
		return 0
	}
	return s.Max/s.Avg - 1
}

// Waste is the phase's imbalance cost: the work the slowest rank did
// beyond the mean, max − avg. Summed over phases this is exactly the
// wall-clock lost to imbalance, the quantity the LB-invocation
// criterion of arXiv:2104.01688 balances against the cost of
// rebalancing.
func (s Summary) Waste() float64 { return s.Max - s.Avg }

// PredWaste is the forecast next-phase imbalance cost, clamped at 0.
func (s Summary) PredWaste() float64 {
	w := s.PredMax - s.PredAvg
	if w < 0 {
		return 0
	}
	return w
}

// Decision is a trigger's verdict for one phase.
type Decision struct {
	Fire bool
	// Why is a short deterministic explanation, rendered into the
	// trigger log (and therefore into the serve-smoke golden) — format
	// values with fixed precision only.
	Why string
}

// Trigger decides, once per finished phase, whether to invoke the
// balancer. Implementations may keep state between calls but must be
// pure functions of their configuration and the Summary sequence —
// no clocks, no randomness, no rank identity — so that every rank's
// instance stays in lockstep.
type Trigger interface {
	Name() string
	Decide(s Summary) Decision
}

// EveryK fires every k-th phase — k = 1 is the always-LB baseline of
// the batch harness, the policy the smarter triggers are measured
// against.
type EveryK struct{ K int }

// Name implements Trigger.
func (t *EveryK) Name() string { return fmt.Sprintf("every:%d", t.K) }

// Decide implements Trigger: fire once SinceLB reaches K−1, i.e. every
// K-th phase.
func (t *EveryK) Decide(s Summary) Decision {
	if s.SinceLB >= t.K-1 {
		return Decision{Fire: true, Why: fmt.Sprintf("period %d reached", t.K)}
	}
	return Decision{Why: fmt.Sprintf("phase %d of %d", s.SinceLB+1, t.K)}
}

// ImbalanceThreshold fires whenever the observed imbalance exceeds H —
// reactive: it waits for damage to materialize, then rebalances.
type ImbalanceThreshold struct{ H float64 }

// Name implements Trigger.
func (t *ImbalanceThreshold) Name() string { return fmt.Sprintf("threshold:%.4g", t.H) }

// Decide implements Trigger.
func (t *ImbalanceThreshold) Decide(s Summary) Decision {
	imb := s.Imbalance()
	if imb > t.H {
		return Decision{Fire: true, Why: fmt.Sprintf("imb %.4f > %.4f", imb, t.H)}
	}
	return Decision{Why: fmt.Sprintf("imb %.4f <= %.4f", imb, t.H)}
}

// Forecast implements the LB-invocation criterion of Boulmier et al.
// (arXiv:2104.01688), in its rent-to-buy form: accumulate the realized
// imbalance cost since the last rebalancing and add the predicted
// next-phase cost from the load model; once that total reaches the
// (headroom-scaled) cost of one balancer invocation, rebalancing pays
// for itself — fire and reset. On steady workloads the accumulator
// grows slowly and LB stays rare; when a burst hits, the realized and
// forecast waste cross the threshold within a phase or two.
type Forecast struct {
	// Headroom scales the LB cost the accumulator must reach (default
	// 1). Above 1 the trigger tolerates more imbalance before paying
	// for a rebalance; below 1 it fires earlier.
	Headroom float64

	accum float64
}

// Name implements Trigger.
func (t *Forecast) Name() string { return fmt.Sprintf("forecast:%.4g", t.headroom()) }

func (t *Forecast) headroom() float64 {
	if t.Headroom <= 0 {
		return 1
	}
	return t.Headroom
}

// Decide implements Trigger.
func (t *Forecast) Decide(s Summary) Decision {
	t.accum += s.Waste()
	next := s.PredWaste()
	budget := s.LBCost * t.headroom()
	if t.accum+next >= budget {
		why := fmt.Sprintf("accum %.4f + next %.4f >= budget %.4f", t.accum, next, budget)
		t.accum = 0
		return Decision{Fire: true, Why: why}
	}
	return Decision{Why: fmt.Sprintf("accum %.4f + next %.4f < budget %.4f", t.accum, next, budget)}
}

// TriggerSpec is a parseable, comparable description of a trigger —
// the form configuration flags and the tuner trade in. Each rank (and
// each simulation) constructs its own Trigger instance from the spec,
// so per-rank trigger state is never shared.
type TriggerSpec struct {
	// Family is "every", "threshold" or "forecast".
	Family string
	// K is the period for "every" (default 1).
	K int
	// Threshold is the imbalance bound for "threshold" (default 0.1).
	Threshold float64
	// Headroom scales the forecast budget (default 1).
	Headroom float64
}

// ParseTrigger parses a trigger directive:
//
//	always                 — alias for every:1
//	every:K                — fire every K-th phase
//	threshold:H            — fire when observed imbalance exceeds H
//	forecast[:headroom=X]  — the arXiv:2104.01688 criterion
func ParseTrigger(s string) (TriggerSpec, error) {
	fam, arg, hasArg := strings.Cut(s, ":")
	switch fam {
	case "always":
		if hasArg {
			return TriggerSpec{}, fmt.Errorf("serve: trigger %q: always takes no argument", s)
		}
		return TriggerSpec{Family: "every", K: 1}, nil
	case "every":
		k := 1
		if hasArg {
			v, err := strconv.Atoi(arg)
			if err != nil || v < 1 {
				return TriggerSpec{}, fmt.Errorf("serve: trigger %q: want every:K with K >= 1", s)
			}
			k = v
		}
		return TriggerSpec{Family: "every", K: k}, nil
	case "threshold":
		h := 0.1
		if hasArg {
			v, err := strconv.ParseFloat(arg, 64)
			if err != nil || !(v >= 0) {
				return TriggerSpec{}, fmt.Errorf("serve: trigger %q: want threshold:H with H >= 0", s)
			}
			h = v
		}
		return TriggerSpec{Family: "threshold", Threshold: h}, nil
	case "forecast":
		head := 1.0
		if hasArg {
			key, val, ok := strings.Cut(arg, "=")
			if !ok || key != "headroom" {
				return TriggerSpec{}, fmt.Errorf("serve: trigger %q: want forecast or forecast:headroom=X", s)
			}
			v, err := strconv.ParseFloat(val, 64)
			if err != nil || !(v > 0) {
				return TriggerSpec{}, fmt.Errorf("serve: trigger %q: headroom must be > 0", s)
			}
			head = v
		}
		return TriggerSpec{Family: "forecast", Headroom: head}, nil
	}
	return TriggerSpec{}, fmt.Errorf("serve: unknown trigger family %q (want always, every, threshold or forecast)", fam)
}

// New constructs a fresh Trigger from the spec, or reports a spec no
// trigger can be built from: an unknown family, or a NaN parameter, which
// every comparison would answer "skip".
func (ts TriggerSpec) New() (Trigger, error) {
	switch ts.Family {
	case "every":
		k := ts.K
		if k < 1 {
			k = 1
		}
		return &EveryK{K: k}, nil
	case "threshold":
		if math.IsNaN(ts.Threshold) {
			return nil, fmt.Errorf("serve: trigger %s: a NaN threshold never fires", ts)
		}
		return &ImbalanceThreshold{H: ts.Threshold}, nil
	case "forecast":
		if math.IsNaN(ts.Headroom) {
			return nil, fmt.Errorf("serve: trigger %s: a NaN headroom never fires", ts)
		}
		head := ts.Headroom
		if head <= 0 {
			head = 1
		}
		return &Forecast{Headroom: head}, nil
	}
	return nil, fmt.Errorf("serve: unknown trigger family %q", ts.Family)
}

// String renders the spec in the form ParseTrigger accepts.
func (ts TriggerSpec) String() string {
	switch ts.Family {
	case "every":
		return fmt.Sprintf("every:%d", ts.K)
	case "threshold":
		return fmt.Sprintf("threshold:%g", ts.Threshold)
	case "forecast":
		return fmt.Sprintf("forecast:headroom=%g", ts.Headroom)
	}
	return ts.Family
}
