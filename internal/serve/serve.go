package serve

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"temperedlb/internal/amt"
	"temperedlb/internal/core"
	"temperedlb/internal/lb/tempered"
	"temperedlb/internal/obs"
)

// Config parameterizes one service run. Every rank of the job must be
// handed an identical Config (the same discipline as core.Config for
// the batch protocol).
type Config struct {
	Scenario Spec
	Trigger  TriggerSpec

	// LB is the tempered configuration used for each invocation. A zero
	// value selects the service default: the shipped TemperedLB
	// configuration with Rounds pinned to 1 (single-round gossip is a
	// pure canonicalized merge, so results are identical across
	// transports — the same pin as the cross-transport suite), Trials 2,
	// Iterations 4, and the scenario seed.
	LB core.Config

	// Alpha and Beta are the load model's level and trend smoothing
	// factors (defaults 0.5 and 0.3); MaxAge its absence age-out
	// (default amt.DefaultMaxAge).
	Alpha, Beta float64
	MaxAge      int

	// LBCost is the cost of one balancer invocation in load units — what
	// the forecast criterion weighs cumulative imbalance against, and
	// what the cost accounting charges per fire (default 20).
	LBCost float64
}

func (c Config) withDefaults() Config {
	if c.LB.Fanout == 0 {
		c.LB = core.Tempered()
		c.LB.Rounds = 1
		c.LB.Trials, c.LB.Iterations = 2, 4
		c.LB.Seed = c.Scenario.Seed
	}
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
	c.Scenario = c.Scenario.withDefaults()
	return c
}

// Validate reports the first value no run can have — a scenario without
// ranks, phases or items, a hot set outside [0,Ranks], a smoothing factor
// outside its interval, a negative age-out or cost — as "<field> <value>:
// want <range>", the field spelled as lbserve's flag; zero, "the default",
// passes. Run calls it, and a driver before it stands a job up, where a bad
// value is then refused once and not on every rank.
func (c Config) Validate() error {
	if err := c.Scenario.validate(); err != nil {
		return err
	}
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

// prepare is what Run does before it touches the runtime: the configuration
// with its defaults applied and a fresh trigger built from it, or the error
// every rank would return alike. Simulate asks once, before it stands a job
// up.
func (c Config) prepare() (Config, Trigger, error) {
	if err := c.Validate(); err != nil {
		return c, nil, fmt.Errorf("serve: %w", err)
	}
	c = c.withDefaults()
	// A balancer configuration RunDistributed would refuse fails here, on
	// every rank alike and before any phase, not at the first fire.
	if err := c.LB.Validate(); err != nil {
		return c, nil, fmt.Errorf("serve: LB configuration: %w", err)
	}
	trig, err := c.Trigger.New()
	return c, trig, err
}

// Row is one phase's entry in the trigger-decision log. Every field
// derives from collective outputs or shared configuration, so the log
// is identical on every rank — `make serve-smoke` diffs it against a
// golden and across transports.
type Row struct {
	Phase            int
	Max, Avg         float64
	PredMax, PredAvg float64
	Fired            bool
	Why              string
	FinalImb         float64 // post-LB imbalance, only when Fired
	InitialImb       float64 // pre-LB imbalance, only when Fired
}

// Result sums up a service run. Identical on every rank apart from
// LocalMigrations, which counts only the calling rank's shipped
// objects.
type Result struct {
	Trigger       string
	Ranks, Phases int
	Fires, Skips  int

	// TotalWaste is Σ over phases of (max − avg): the work lost to
	// imbalance. LBPaid is Fires × LBCost. TotalCost is their sum — the
	// objective the trigger policies compete on.
	TotalWaste, LBPaid, TotalCost float64

	// ForecastMAE is the mean absolute error of the predicted max rank
	// load against the next phase's observed max — the serve_* metric
	// for judging the load model.
	ForecastMAE float64

	// AssignFP is a collectively agreed 52-bit fingerprint of the final
	// object→rank assignment: identical on every rank, and equal across
	// transports iff every object ended the run on the same rank.
	AssignFP uint64

	Rows []Row

	// LocalMigrations counts objects this rank shipped out across all
	// invocations (rank-local by nature).
	LocalMigrations int
}

// summaryOps reduces [own, predOwn, own, predOwn] to the two maxima
// followed by the two sums.
var summaryOps = []amt.ReduceOp{amt.ReduceMax, amt.ReduceMax, amt.ReduceSum, amt.ReduceSum}

// Run executes the balancer service on the calling rank: Phases times,
// generate the phase's work from the scenario, fold the observations
// into the load model, agree on the phase summary with one mixed-op
// collective, ask the trigger, and — when it fires — run the tempered
// distributed protocol over the model's predictions. All ranks must
// call it collectively, with identical cfg, after registering the LB
// handlers.
//
// Determinism: the scenario is a pure function of the spec; each
// object's load is a function of (item, phase) carried in the object
// state, so work is computable wherever the object migrates; the
// trigger consumes only collectively-agreed summaries. By induction
// every rank makes the same fire/skip decision at every phase, so the
// collective call sequence never diverges — the property the
// cross-transport tests pin down.
func Run(rc *amt.Context, h *tempered.Handlers, cfg Config) (Result, error) {
	cfg, trig, err := cfg.prepare()
	if err != nil {
		return Result{}, err
	}
	sc, err := NewScenario(cfg.Scenario)
	if err != nil {
		return Result{}, err
	}
	if rc.NumRanks() != sc.Spec.Ranks {
		return Result{}, fmt.Errorf("serve: scenario spans %d ranks but the runtime has %d", sc.Spec.Ranks, rc.NumRanks())
	}
	model := amt.NewLoadModel(cfg.Alpha)
	model.SetTrend(cfg.Beta)
	model.SetMaxAge(cfg.MaxAge)

	self := int(rc.Rank())
	n := float64(rc.NumRanks())
	res := Result{Trigger: trig.Name(), Ranks: sc.Spec.Ranks, Phases: sc.Spec.Phases,
		Rows: make([]Row, 0, sc.Spec.Phases)}

	// When the job is watched (a job-wide fact), the phase reduce also
	// carries the summary of the phase's rank loads, and each watching
	// node's publishing rank turns what came back into the phase's frame.
	watched, stream := rc.Watched(), rc.Stream()
	summary := obs.NewLoadSummary(rc.NumRanks())
	ops := summaryOps
	if watched {
		ops = obs.WithSummaryOps(summaryOps, summary, amt.ReduceSum, amt.ReduceMax)
	}
	var reduce []float64

	met := rc.Metrics()
	if met != nil {
		for fam, help := range map[string]string{
			"serve_phases_total":         "Service phases completed.",
			"serve_triggers_fired_total": "Phases on which the trigger invoked the balancer.",
			"serve_phases_skipped_total": "Phases on which the trigger skipped the balancer.",
			"serve_waste_total":          "Cumulative imbalance cost, sum of (max - avg) load per phase.",
			"serve_lb_cost_total":        "Cumulative balancer cost, fires times the configured LBCost.",
			"serve_forecast_mae":         "Mean absolute error of the predicted max rank load.",
		} {
			met.SetHelp(fam, help)
		}
	}

	var forecastAbsErr float64
	var forecastN int
	prevPredMax := 0.0
	havePrev := false
	sinceLB := 0

	for p := 0; p < sc.Spec.Phases; p++ {
		// Arrivals: create this phase's new local items, in index order
		// so object ids are reproducible. The state is the item index —
		// enough for any future owner to compute the item's load curve.
		for _, it := range sc.ArrivalsAt(self, p) {
			rc.CreateObject(float64(it))
		}

		// Work the phase: every local, alive object records its
		// scenario-determined load.
		rc.PhaseBegin()
		for _, id := range rc.LocalObjects() {
			st, _ := rc.ObjectState(id)
			it := int(st.(float64))
			if sc.Alive(it, p) {
				rc.RecordWork(id, sc.Load(it, p))
			}
		}
		stats := rc.PhaseEnd()
		model.Observe(stats)

		// Agree on the phase summary: the observed rank total and the
		// predicted next-phase total, each maximized and summed in one
		// mixed-op sweep, give every rank the same Summary bits.
		own := stats.Total
		predOwn := predictedTotal(model)
		reduce = append(reduce[:0], own, predOwn, own, predOwn)
		if watched {
			reduce = summary.Append(reduce, self, own)
		}
		agg := rc.AllReduceMixed(reduce, ops)
		sum := Summary{
			Phase:   p,
			Max:     agg[0],
			Avg:     agg[2] / n,
			PredMax: agg[1],
			PredAvg: agg[3] / n,
			SinceLB: sinceLB,
			LBCost:  cfg.LBCost,
		}
		res.TotalWaste += sum.Waste()
		if havePrev {
			forecastAbsErr += math.Abs(prevPredMax - sum.Max)
			forecastN++
		}
		prevPredMax, havePrev = sum.PredMax, true

		if stream != nil {
			f := obs.Snapshot{Source: "serve", Phase: "phase", Step: p}
			summary.Fill(&f, agg[len(summaryOps):], agg[2])
			stream.Publish(f)
		}

		d := trig.Decide(sum)
		row := Row{
			Phase: p, Max: sum.Max, Avg: sum.Avg,
			PredMax: sum.PredMax, PredAvg: sum.PredAvg,
			Fired: d.Fire, Why: d.Why,
		}
		if d.Fire {
			lbCfg := cfg.LB
			// A distinct seed stream per invocation, derived
			// deterministically from the phase, so successive
			// invocations don't replay identical gossip dice.
			lbCfg.Seed = cfg.LB.Seed + int64(p+1)*7919
			dres, err := tempered.RunDistributed(rc, h, lbCfg, model.Predictions())
			if err != nil {
				return Result{}, fmt.Errorf("serve: phase %d LB invocation: %w", p, err)
			}
			row.InitialImb = dres.InitialImbalance
			row.FinalImb = dres.FinalImbalance
			res.Fires++
			res.LBPaid += cfg.LBCost
			res.LocalMigrations += dres.Migrations
			sinceLB = 0
			// Forget what migrated away: the receiving rank's model
			// starts fresh from its own observations (the ownership
			// handoff the predictor tests pin down).
			for _, id := range model.IDs() {
				if !rc.HasObject(id) {
					model.Forget(id)
				}
			}
		} else {
			res.Skips++
			sinceLB++
		}
		res.Rows = append(res.Rows, row)

		if met != nil {
			// Every rank stores the same collective-derived values, so
			// the serve_* families exist on every node of a
			// multi-process job.
			met.Counter("serve_phases_total").Store(int64(p + 1))
			met.Counter("serve_triggers_fired_total").Store(int64(res.Fires))
			met.Counter("serve_phases_skipped_total").Store(int64(res.Skips))
			met.Gauge("serve_waste_total").Set(res.TotalWaste)
			met.Gauge("serve_lb_cost_total").Set(res.LBPaid)
			if forecastN > 0 {
				met.Gauge("serve_forecast_mae").Set(forecastAbsErr / float64(forecastN))
			}
		}
	}

	res.TotalCost = res.TotalWaste + res.LBPaid
	if forecastN > 0 {
		res.ForecastMAE = forecastAbsErr / float64(forecastN)
	}
	res.AssignFP = assignmentFingerprint(rc)
	return res, nil
}

// assignmentFingerprint folds the final object→rank assignment into one
// agreed value: each rank FNV-hashes its sorted local object ids,
// truncated to 52 bits so the digest is exact in a float64, the
// per-rank digests are all-gathered, and every rank hashes the vector
// in rank order. A migration that left any object on a different rank
// under a different transport changes some rank's digest and therefore
// the fingerprint — the final-assignment identity the serve smoke and
// the cross-transport tests assert.
func assignmentFingerprint(rc *amt.Context) uint64 {
	const mask = 1<<52 - 1
	var buf [8]byte
	h := fnv.New64a()
	for _, id := range rc.LocalObjects() {
		binary.BigEndian.PutUint64(buf[:], uint64(id))
		h.Write(buf[:])
	}
	vec := rc.AllGather(float64(h.Sum64() & mask))
	g := fnv.New64a()
	for _, v := range vec {
		binary.BigEndian.PutUint64(buf[:], uint64(v))
		g.Write(buf[:])
	}
	return g.Sum64() & mask
}

// predictedTotal sums the model's one-phase-ahead predictions in
// ascending object-id order — the fixed FP combine order that keeps the
// collective inputs, and so the whole service, bit-deterministic.
func predictedTotal(m *amt.LoadModel) float64 {
	s := 0.0
	for _, id := range m.IDs() {
		s += m.Predict(id)
	}
	return s
}

// WriteLog renders the trigger-decision log: a header line naming the
// run, then one line per phase. Everything printed is rank-identical
// and wall-clock free, so two runs of the same spec — on any transport,
// at any node count — produce byte-identical logs (the serve-smoke
// contract).
func WriteLog(w io.Writer, cfg Config, res Result) error {
	cfg = cfg.withDefaults()
	if _, err := fmt.Fprintf(w, "# serve scenario=%s ranks=%d phases=%d items=%d seed=%d trigger=%s lbcost=%g\n",
		cfg.Scenario.Kind, cfg.Scenario.Ranks, cfg.Scenario.Phases, cfg.Scenario.Items,
		cfg.Scenario.Seed, res.Trigger, cfg.LBCost); err != nil {
		return err
	}
	for _, r := range res.Rows {
		verdict := "skip"
		if r.Fired {
			verdict = "FIRE"
		}
		if _, err := fmt.Fprintf(w, "phase %3d  max %9.4f  avg %9.4f  pred_max %9.4f  %s  (%s)",
			r.Phase, r.Max, r.Avg, r.PredMax, verdict, r.Why); err != nil {
			return err
		}
		if r.Fired {
			if _, err := fmt.Fprintf(w, "  imb %.4f -> %.4f", r.InitialImb, r.FinalImb); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# fires %d  skips %d  waste %.4f  lb_paid %.4f  total_cost %.4f  forecast_mae %.4f  assign_fp %013x\n",
		res.Fires, res.Skips, res.TotalWaste, res.LBPaid, res.TotalCost, res.ForecastMAE, res.AssignFP)
	return err
}
