package core

import "fmt"

// Criterion selects the transfer acceptance test of Algorithm 2
// (EVALUATECRITERION, lines 33–39).
type Criterion int

const (
	// CriterionOriginal is the original GrapevineLB test (line 35):
	// accept moving task o to rank x only if l_x + LOAD(o) < l_ave.
	// It enforces strict monotonicity on every recipient and is shown in
	// §V-B to reject almost all transfers, trapping I in a local minimum.
	CriterionOriginal Criterion = iota

	// CriterionRelaxed is the paper's optimal criterion (line 37):
	// accept if LOAD(o) < l^p − l_x, i.e. the recipient ends up strictly
	// less loaded than the sender was before the transfer. Lemma 1 proves
	// the objective F monotonically decreases under it; Lemma 2 proves no
	// looser criterion can preserve that.
	CriterionRelaxed
)

// String returns the name used in tables and flags.
func (c Criterion) String() string {
	switch c {
	case CriterionOriginal:
		return "original"
	case CriterionRelaxed:
		return "relaxed"
	default:
		return fmt.Sprintf("Criterion(%d)", int(c))
	}
}

// Evaluate applies the criterion for a prospective transfer of a task
// with load taskLoad from a rank currently loaded selfLoad to a recipient
// believed (from gossip) to be loaded recipientLoad, with global average
// rank load ave. It reports whether the transfer should be accepted.
func (c Criterion) Evaluate(recipientLoad, taskLoad, ave, selfLoad float64) bool {
	switch c {
	case CriterionOriginal:
		return recipientLoad+taskLoad < ave
	case CriterionRelaxed:
		return taskLoad < selfLoad-recipientLoad
	default:
		return false
	}
}

// CMFKind selects how BUILDCMF (Algorithm 2, lines 21–32) normalizes the
// probability mass function over candidate recipients.
type CMFKind int

const (
	// CMFOriginal uses l_s = l_ave. Valid while every known recipient is
	// strictly underloaded; probabilities of ranks at or above the
	// average are clamped to zero.
	CMFOriginal CMFKind = iota

	// CMFModified uses l_s = max(l_ave, max known load) (line 25), the
	// paper's §V-C change that keeps the mass function non-negative once
	// the relaxed criterion lets recipients exceed the average.
	CMFModified
)

// String returns the name used in tables and flags.
func (k CMFKind) String() string {
	switch k {
	case CMFOriginal:
		return "original"
	case CMFModified:
		return "modified"
	default:
		return fmt.Sprintf("CMFKind(%d)", int(k))
	}
}

// Ordering selects the task traversal order of the transfer stage
// (ORDERTASKS, §V-E).
type Ordering int

const (
	// OrderArbitrary considers tasks by identifying index, the baseline
	// of the original algorithm (Algorithm 2 line 41).
	OrderArbitrary Ordering = iota

	// OrderLoadIntensive tries the most load-intensive tasks first
	// (Algorithm 4), the paper's straw-man.
	OrderLoadIntensive

	// OrderFewestMigrations aims to resolve the overload with the fewest
	// transfers (Algorithm 5): the lightest task that alone covers the
	// excess first, then lighter tasks descending, then heavier ascending.
	OrderFewestMigrations

	// OrderLightest aims for maximal acceptance odds (Algorithm 6): the
	// marginal task of the ascending prefix sum first, then lighter tasks
	// descending, then heavier ascending.
	OrderLightest
)

// String returns the name used in tables and flags.
func (o Ordering) String() string {
	switch o {
	case OrderArbitrary:
		return "arbitrary"
	case OrderLoadIntensive:
		return "load-intensive"
	case OrderFewestMigrations:
		return "fewest-migrations"
	case OrderLightest:
		return "lightest"
	default:
		return fmt.Sprintf("Ordering(%d)", int(o))
	}
}

// ParseOrdering converts a flag string (as produced by Ordering.String)
// back to an Ordering.
func ParseOrdering(s string) (Ordering, error) {
	for _, o := range []Ordering{OrderArbitrary, OrderLoadIntensive, OrderFewestMigrations, OrderLightest} {
		if o.String() == s {
			return o, nil
		}
	}
	return 0, fmt.Errorf("core: unknown ordering %q", s)
}

// Config collects the knobs of the TemperedLB protocol, each read by both
// drivers; what only the Engine takes is in EngineConfig. The zero value
// is not useful; start from Tempered() or Grapevine().
type Config struct {
	// Fanout is the gossip branching factor f of Algorithm 1.
	Fanout int
	// Rounds is the number of gossip rounds k of Algorithm 1.
	Rounds int
	// Threshold is the relative imbalance threshold h: a rank keeps
	// proposing transfers while its load exceeds h·l_ave.
	Threshold float64

	// Criterion, CMF, Order select the transfer-stage variants.
	Criterion Criterion
	CMF       CMFKind
	Order     Ordering

	// RecomputeCMF recomputes the CMF inside the transfer loop (line 7 of
	// Algorithm 2) so locally scheduled transfers immediately influence
	// recipient selection; the original algorithm builds it once (line 5).
	// Either way it is built once per pass; recomputing raises the
	// recipient of each accepted transfer in it, in O(log |S|).
	RecomputeCMF bool

	// Passes bounds repeated traversals of the task list within one
	// transfer-stage execution. Algorithm 2 as written makes a single
	// pass over O^p (Passes = 1), but the per-iteration rejection counts
	// the paper reports from LBAF (≈16 evaluations per task in §V-B)
	// imply the tool retries rejected tasks until a full pass accepts
	// nothing; Passes <= 0 selects that until-quiescence behaviour. Both
	// shipped configurations set 1; cmd/lbaf and the table benchmarks, 0.
	Passes int

	// Trials and Iterations drive the refinement of Algorithm 3: each of
	// Trials restarts from the original assignment and runs Iterations
	// inform+transfer passes; the globally best distribution wins.
	Trials     int
	Iterations int

	// Seed makes every random choice reproducible. Distinct per-rank and
	// per-trial streams are derived from it.
	Seed int64

	// MaxGossipEntries caps the number of knowledge entries carried per
	// gossip message (0 = unlimited). Footnote 2 of the paper flags the
	// O(P) list size as a scalability pitfall and defers limited-
	// information balancing to future work; this implements it. Entries
	// are sampled uniformly from the sender's knowledge.
	MaxGossipEntries int
}

// Grapevine returns the configuration matching the original GrapevineLB
// algorithm of Menon & Kalé as described in §IV-B: original criterion and
// CMF, CMF built once, arbitrary task order, a single trial of a single
// inform+transfer pass.
func Grapevine() Config {
	return Config{
		Fanout:     6,
		Rounds:     10,
		Threshold:  1.0,
		Criterion:  CriterionOriginal,
		CMF:        CMFOriginal,
		Order:      OrderArbitrary,
		Passes:     1, // the literal single traversal of Algorithm 2
		Trials:     1,
		Iterations: 1,
		Seed:       1,
	}
}

// Tempered returns the paper's TemperedLB configuration as run in the
// EMPIRE evaluation (§VI-B): relaxed criterion, modified CMF recomputed
// during the transfer loop, Fewest Migrations ordering, 10 trials of 8
// iterations each.
func Tempered() Config {
	cfg := Grapevine()
	cfg.Criterion = CriterionRelaxed
	cfg.CMF = CMFModified
	cfg.RecomputeCMF = true
	cfg.Order = OrderFewestMigrations
	cfg.Trials = 10
	cfg.Iterations = 8
	cfg.Passes = 1
	return cfg
}

// MaxRounds bounds Config.Rounds: a gossip state keeps the rounds it has
// forwarded in one 64-bit mask. The paper runs k ≤ 10.
const MaxRounds = 64

// ErrTooManyRounds is the error Validate wraps for Rounds > MaxRounds.
var ErrTooManyRounds = fmt.Errorf("core: rounds must be <= %d", MaxRounds)

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	switch {
	case c.Fanout < 1:
		return fmt.Errorf("core: fanout must be >= 1, got %d", c.Fanout)
	case c.Rounds < 1:
		return fmt.Errorf("core: rounds must be >= 1, got %d", c.Rounds)
	case c.Rounds > MaxRounds:
		return fmt.Errorf("%w, got %d", ErrTooManyRounds, c.Rounds)
	case c.Threshold <= 0:
		return fmt.Errorf("core: threshold must be > 0, got %g", c.Threshold)
	case c.Trials < 1:
		return fmt.Errorf("core: trials must be >= 1, got %d", c.Trials)
	case c.Iterations < 1:
		return fmt.Errorf("core: iterations must be >= 1, got %d", c.Iterations)
	case c.MaxGossipEntries < 0:
		return fmt.Errorf("core: max gossip entries must be >= 0, got %d", c.MaxGossipEntries)
	}
	return nil
}
