package temperedlb

import (
	"io"

	"temperedlb/internal/serve"
)

// Online balancer service surface: the layer that decides WHEN to
// rebalance — a phase loop over a deterministic scenario stream, a
// Holt level+trend load model, and pluggable invocation triggers
// including the forecast criterion of arXiv:2104.01688. See
// internal/serve for the determinism argument.
type (
	// ServiceConfig parameterizes one service run; identical on every
	// rank of the job.
	ServiceConfig = serve.Config
	// ServiceResult sums up a run: fire/skip counts, the cost
	// accounting, and the per-phase trigger-decision rows.
	ServiceResult = serve.Result
	// ScenarioSpec describes a deterministic workload stream (ramp,
	// diurnal, burst or churn).
	ScenarioSpec = serve.Spec
	// ScenarioKind selects the stream generator.
	ScenarioKind = serve.Kind
	// Scenario is the precomputed event stream.
	Scenario = serve.Scenario
	// TriggerSpec is a parseable trigger description; each rank builds
	// its own Trigger instance from it.
	TriggerSpec = serve.TriggerSpec
	// Trigger decides, per phase, whether to invoke the balancer.
	Trigger = serve.Trigger
	// TriggerSummary is the rank-identical phase view triggers consume.
	TriggerSummary = serve.Summary
	// TuneCandidate is one grid point of a tuning sweep: a trigger and
	// the ServiceResult of the service run with it.
	TuneCandidate = serve.Candidate
)

// Scenario kinds.
const (
	ScenarioRamp    = serve.KindRamp
	ScenarioDiurnal = serve.KindDiurnal
	ScenarioBurst   = serve.KindBurst
	ScenarioChurn   = serve.KindChurn
)

// ParseScenarioKind parses ramp | diurnal | burst | churn.
func ParseScenarioKind(s string) (ScenarioKind, error) { return serve.ParseKind(s) }

// ParseTrigger parses a trigger directive: always, every:K,
// threshold:H, or forecast[:headroom=X].
func ParseTrigger(s string) (TriggerSpec, error) { return serve.ParseTrigger(s) }

// NewScenario builds the deterministic event stream for a spec.
func NewScenario(spec ScenarioSpec) (*Scenario, error) { return serve.NewScenario(spec) }

// RunService executes the balancer service on the calling rank: every
// phase folds scenario-driven observations into the load model, agrees
// on a summary collectively, and invokes the tempered protocol when
// the trigger fires. All ranks must call it collectively with
// identical cfg, after RegisterLBHandlers.
func RunService(rc *RankContext, h *LBHandlers, cfg ServiceConfig) (ServiceResult, error) {
	return serve.Run(rc, h, cfg)
}

// WriteServiceLog renders the rank-identical trigger-decision log —
// the artifact `make serve-smoke` diffs across transports and against
// its golden.
func WriteServiceLog(w io.Writer, cfg ServiceConfig, res ServiceResult) error {
	return serve.WriteLog(w, cfg, res)
}

// TuneTrigger grid-searches trigger parameters for cfg (its Trigger is
// ignored), one in-process service run per candidate, and returns the
// cheapest candidate plus the full sweep. families selects trigger
// families ("every", "threshold", "forecast"); nil sweeps all three.
func TuneTrigger(cfg ServiceConfig, families []string) (TuneCandidate, []TuneCandidate, error) {
	return serve.Tune(cfg, families)
}
