package serve

import (
	"fmt"
	"sort"

	"temperedlb/internal/amt"
)

// Trace is a recorded event stream: for every phase, the alive items
// with their loads and home ranks. It is the offline replay format —
// record one from a scenario (or a production workload), then Simulate
// candidate triggers against it without paying for live protocol runs.
type Trace struct {
	Ranks  int          `json:"ranks"`
	Phases []TracePhase `json:"phases"`
}

// TracePhase is one phase of a Trace.
type TracePhase struct {
	Items []TraceItem `json:"items"`
}

// TraceItem is one alive item's observation in one phase.
type TraceItem struct {
	ID   int     `json:"id"`
	Home int     `json:"home"`
	Load float64 `json:"load"`
}

// RecordTrace renders a scenario into its trace: per phase, the alive
// items in ascending id order.
func RecordTrace(sc *Scenario) Trace {
	tr := Trace{Ranks: sc.Spec.Ranks}
	for p := 0; p < sc.Spec.Phases; p++ {
		var ph TracePhase
		for i := 0; i < sc.NumItems(); i++ {
			if sc.Alive(i, p) {
				ph.Items = append(ph.Items, TraceItem{ID: i, Home: sc.Item(i).Home, Load: sc.Load(i, p)})
			}
		}
		tr.Phases = append(tr.Phases, ph)
	}
	return tr
}

// SimConfig are the replay knobs, mirroring the live service's
// predictor and cost parameters.
type SimConfig struct {
	Alpha, Beta float64
	MaxAge      int
	LBCost      float64
}

func (c SimConfig) withDefaults() SimConfig {
	if c.Alpha == 0 {
		c.Alpha = 0.5
	}
	if c.Beta == 0 {
		c.Beta = 0.3
	}
	if c.MaxAge == 0 {
		c.MaxAge = amt.DefaultMaxAge
	}
	if c.LBCost == 0 {
		c.LBCost = 20
	}
	return c
}

// validate is Config.Validate's half for the predictor and cost knobs.
func (c SimConfig) validate() error {
	switch c = c.withDefaults(); {
	case !(c.Alpha > 0 && c.Alpha <= 1):
		return fmt.Errorf("alpha %g: want in (0,1]", c.Alpha)
	case !(c.Beta >= 0 && c.Beta <= 1):
		return fmt.Errorf("beta %g: want in [0,1]", c.Beta)
	case c.MaxAge < 0:
		return fmt.Errorf("maxage %d: want >= 0", c.MaxAge)
	case !(c.LBCost >= 0):
		return fmt.Errorf("lbcost %g: want >= 0", c.LBCost)
	}
	return nil
}

// SimResult is one replay's cost accounting — the same objective the
// live Result reports, so offline and online numbers compare directly.
type SimResult struct {
	Trigger      string
	Fires, Skips int
	TotalWaste   float64
	LBPaid       float64
	TotalCost    float64
}

// Simulate replays a trace against one trigger configuration: items
// start at their homes, each phase's per-rank loads feed the same
// Summary the live service would assemble, and a fired trigger applies
// a greedy longest-processing-time rebalance over the model's predicted
// loads (the offline stand-in for the tempered protocol). Deterministic
// in its inputs.
func Simulate(tr Trace, ts TriggerSpec, sim SimConfig) (SimResult, error) {
	if err := sim.validate(); err != nil {
		return SimResult{}, fmt.Errorf("serve: %w", err)
	}
	sim = sim.withDefaults()
	if tr.Ranks < 1 {
		return SimResult{}, fmt.Errorf("serve: trace has %d ranks", tr.Ranks)
	}
	trig, err := ts.New()
	if err != nil {
		return SimResult{}, err
	}
	model := amt.NewLoadModel(sim.Alpha)
	model.SetTrend(sim.Beta)
	model.SetMaxAge(sim.MaxAge)

	assign := map[int]int{} // item id -> current rank
	res := SimResult{Trigger: trig.Name()}
	n := float64(tr.Ranks)
	sinceLB := 0

	for p, ph := range tr.Phases {
		loads := make([]float64, tr.Ranks)
		obsLoads := make(map[amt.ObjectID]float64, len(ph.Items))
		for _, it := range ph.Items {
			r, ok := assign[it.ID]
			if !ok {
				r = it.Home
				assign[it.ID] = r
			}
			loads[r] += it.Load
			obsLoads[simID(it.ID)] = it.Load
		}
		model.Observe(amt.PhaseStats{Loads: obsLoads})

		max, total := 0.0, 0.0
		for _, l := range loads {
			if l > max {
				max = l
			}
			total += l
		}
		predLoads := make([]float64, tr.Ranks)
		predMax, predTotal := 0.0, 0.0
		for _, id := range model.IDs() {
			r, ok := assign[itemOf(id)]
			if !ok {
				continue
			}
			predLoads[r] += model.Predict(id)
		}
		for _, l := range predLoads {
			if l > predMax {
				predMax = l
			}
			predTotal += l
		}

		sum := Summary{
			Phase: p, Max: max, Avg: total / n,
			PredMax: predMax, PredAvg: predTotal / n,
			SinceLB: sinceLB, LBCost: sim.LBCost,
		}
		res.TotalWaste += sum.Waste()
		d := trig.Decide(sum)
		if d.Fire {
			rebalance(model, assign, tr.Ranks)
			res.Fires++
			res.LBPaid += sim.LBCost
			sinceLB = 0
		} else {
			res.Skips++
			sinceLB++
		}
	}
	res.TotalCost = res.TotalWaste + res.LBPaid
	return res, nil
}

// simID wraps an item id into a synthetic ObjectID so the replay can
// drive the real amt.LoadModel.
func simID(item int) amt.ObjectID { return amt.MakeObjectID(0, int64(item+1)) }

// itemOf inverts simID.
func itemOf(id amt.ObjectID) int { return int(int64(id)&(1<<40-1)) - 1 }

// rebalance applies greedy LPT over the model's predictions: items in
// descending predicted load (ties by id), each to the currently
// least-loaded rank (ties by rank index) — a deterministic stand-in
// for what a live invocation achieves.
func rebalance(model *amt.LoadModel, assign map[int]int, ranks int) {
	ids := model.IDs()
	sort.SliceStable(ids, func(a, b int) bool {
		la, lb := model.Predict(ids[a]), model.Predict(ids[b])
		if la != lb {
			return la > lb
		}
		return ids[a] < ids[b]
	})
	loads := make([]float64, ranks)
	for _, id := range ids {
		best := 0
		for r := 1; r < ranks; r++ {
			if loads[r] < loads[best] {
				best = r
			}
		}
		loads[best] += model.Predict(id)
		assign[itemOf(id)] = best
	}
}

// Candidate is one grid point of a tuning sweep.
type Candidate struct {
	Spec   TriggerSpec
	Result SimResult
}

// Tune grid-searches trigger parameters against a trace and returns
// the cheapest candidate (ties broken by fewer fires, then grid
// order — fully deterministic). families selects which trigger
// families to sweep; nil sweeps all three.
func Tune(tr Trace, families []string, sim SimConfig) (Candidate, []Candidate, error) {
	if families == nil {
		families = []string{"every", "threshold", "forecast"}
	}
	var grid []TriggerSpec
	for _, fam := range families {
		switch fam {
		case "every":
			for _, k := range []int{1, 2, 3, 4, 6, 8, 12, 16} {
				grid = append(grid, TriggerSpec{Family: "every", K: k})
			}
		case "threshold":
			for _, h := range []float64{0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.75, 1} {
				grid = append(grid, TriggerSpec{Family: "threshold", Threshold: h})
			}
		case "forecast":
			for _, head := range []float64{0.25, 0.5, 0.75, 1, 1.5, 2, 3, 4} {
				grid = append(grid, TriggerSpec{Family: "forecast", Headroom: head})
			}
		default:
			return Candidate{}, nil, fmt.Errorf("serve: unknown trigger family %q", fam)
		}
	}
	var all []Candidate
	best := -1
	for _, ts := range grid {
		r, err := Simulate(tr, ts, sim)
		if err != nil {
			return Candidate{}, nil, err
		}
		all = append(all, Candidate{Spec: ts, Result: r})
		i := len(all) - 1
		if best < 0 ||
			r.TotalCost < all[best].Result.TotalCost ||
			(r.TotalCost == all[best].Result.TotalCost && r.Fires < all[best].Result.Fires) {
			best = i
		}
	}
	return all[best], all, nil
}
