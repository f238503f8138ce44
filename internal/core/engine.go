package core

import (
	"fmt"
	"math/rand"

	"temperedlb/internal/clock"
	"temperedlb/internal/obs"
)

// IterationStats records the accounting of one inform+transfer pass —
// the rows of the §V-B and §V-D tables.
type IterationStats struct {
	Trial     int // 1-based
	Iteration int // 1-based

	// GossipMessages is the number of gossip messages delivered;
	// GossipEntries the total payload entries carried by them (the
	// communication-volume concern of footnote 2).
	GossipMessages int
	GossipEntries  int

	// KnowledgeAvg and KnowledgeMin summarize how much of the
	// underloaded set the gossip stage spread: the mean and minimum
	// |S^p| over the ranks that were overloaded when the transfer stage
	// began (the ranks whose knowledge matters). Zero when no rank was
	// overloaded.
	KnowledgeAvg float64
	KnowledgeMin int

	// Transfers and Rejected are the accepted/rejected decision counts
	// summed over all ranks; NoCandidate counts transfer loops that
	// stopped for lack of CMF mass.
	Transfers   int
	Rejected    int
	NoCandidate int

	// Imbalance is I of the working distribution after this iteration's
	// transfers were applied.
	Imbalance float64

	// ElapsedSeconds is the wall-clock time the iteration took. In the
	// synchronous engine that is the simulation cost of the pass; in the
	// distributed balancer it is the slowest rank's time from the start
	// of the iteration to the reduce that evaluates it.
	ElapsedSeconds float64
}

// RejectionRate returns Rejected/(Transfers+Rejected) in percent, the
// "Rejection Rate (%)" column, or 0 when no decision was evaluated.
func (s IterationStats) RejectionRate() float64 {
	total := s.Transfers + s.Rejected
	if total == 0 {
		return 0
	}
	return 100 * float64(s.Rejected) / float64(total)
}

// Move records that a task should migrate from one rank to another; the
// set of moves is the net effect of the best distribution found.
type Move struct {
	Task TaskID
	From Rank
	To   Rank
}

// Result is the outcome of Engine.Run.
type Result struct {
	// InitialImbalance and FinalImbalance bracket the refinement;
	// FinalImbalance is the best I over all trials and iterations.
	InitialImbalance float64
	FinalImbalance   float64
	// BestTrial and BestIteration locate the winning distribution
	// (both 0 when no iteration improved on the initial distribution).
	BestTrial     int
	BestIteration int
	// Moves is the net task relocation set of the best distribution
	// relative to the input assignment (Algorithm 3 line 13).
	Moves []Move
	// History holds per-iteration accounting across all trials in
	// execution order.
	History []IterationStats
}

// MovedLoad returns the total load carried by the result's moves — the
// migration volume the runtime must pay.
func (r *Result) MovedLoad(a *Assignment) float64 {
	sum := 0.0
	for _, m := range r.Moves {
		sum += a.Load(m.Task)
	}
	return sum
}

// Engine runs the complete TemperedLB algorithm — Algorithm 3 wrapping
// Algorithms 1 and 2 — over an Assignment, simulating the distributed
// gossip with a deterministic asynchronous message queue. It is the
// LB-analysis twin of the distributed implementation in lb/tempered: the
// same per-rank decision logic, driven synchronously.
//
// An Engine is single-owner: it carries scratch buffers reused across
// trials, iterations and Run calls, so one Engine must not run
// concurrently with itself. Distinct Engines are fully independent —
// parallel experiment sweeps run one Engine per configuration, sharing
// the input Assignment read-only.
type Engine struct {
	cfg EngineConfig
	sc  engineScratch
}

// engineScratch holds every buffer the refinement loop reuses. All state
// is reset (or fully overwritten) at the points the old per-trial
// allocations happened, so results are bit-identical to the allocating
// implementation.
type engineScratch struct {
	table       *LoadTable // the one load table every state gossips over
	states      []*InformState
	transferRNG []*rand.Rand
	orderRNG    *rand.Rand
	work        *Assignment // working distribution, reset per trial
	gossip      []Send      // gossip delivery queue, emptied per iteration
	order       []int       // rank traversal permutation
	tasks       []Task      // overloaded rank's task set
	bestOwners  []Rank      // owner vector of the best distribution
	haveBest    bool
	xfer        TransferScratch
}

// prepare sizes the scratch for numRanks ranks, allocating only when the
// engine has not run at this size before.
func (sc *engineScratch) prepare(numRanks int, cfg *Config) {
	if len(sc.states) == numRanks {
		return
	}
	// The placeholder streams are re-pointed at the trial's derived
	// seeds before any draw (see the StartTrial loop in run); deriving the
	// placeholders from cfg.Seed keeps every construction site fed from
	// the plumbed seed.
	sc.table = NewLoadTable(numRanks)
	sc.states = make([]*InformState, numRanks)
	sc.transferRNG = make([]*rand.Rand, numRanks)
	for r := 0; r < numRanks; r++ {
		sc.states[r] = NewInformStateOn(sc.table, Rank(r), cfg, SeededRNG(cfg.Seed))
		sc.transferRNG[r] = SeededRNG(cfg.Seed)
	}
	sc.orderRNG = SeededRNG(cfg.Seed)
	sc.order = make([]int, numRanks)
	sc.work = nil
}

// EngineConfig is a Config plus the one thing only the synchronous
// Engine takes: the tracer, which the distributed balancer is handed by
// its runtime (amt.Runtime.SetTracer) rather than by its configuration.
// Every balancing knob is in Config, so the engine and the distributed
// balancer run the same algorithm for the same Config.
type EngineConfig struct {
	Config

	// Tracer, when non-nil, receives lb.run and lb.iteration span
	// events. Nil — the default — costs one pointer comparison per
	// iteration.
	Tracer obs.Tracer
}

// NewEngine validates the configuration and returns an engine.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg}, nil
}

// Run executes Trials×Iterations inform+transfer passes over a working
// copy of the assignment and returns the best distribution found. The
// input assignment is not modified; apply the result's Moves to commit.
func (e *Engine) Run(a *Assignment) (*Result, error) {
	if a.NumTasks() == 0 {
		return &Result{}, nil
	}
	ave := a.AveLoad()
	if ave == 0 {
		return &Result{InitialImbalance: 0, FinalImbalance: 0}, nil
	}
	res := &Result{
		InitialImbalance: a.Imbalance(),
	}
	res.FinalImbalance = res.InitialImbalance

	tr := e.cfg.Tracer
	if tr != nil {
		tr.Emit(obs.Event{Type: obs.EvLBBegin, Peer: -1, Object: -1,
			Value: res.InitialImbalance})
	}

	numRanks := a.NumRanks()
	sc := &e.sc
	sc.prepare(numRanks, &e.cfg.Config)
	sc.haveBest = false

	for trial := 1; trial <= e.cfg.Trials; trial++ {
		// Algorithm 3 line 3: reset the working copy for each trial.
		if sc.work == nil {
			sc.work = a.Clone()
		} else {
			sc.work.CopyFrom(a)
		}
		work := sc.work
		// Re-point each rank's random streams at this trial's seeds; the
		// sequences are bit-identical to freshly allocated generators.
		for r := 0; r < numRanks; r++ {
			sc.states[r].StartTrial(trial)
			ReseedTransfer(sc.transferRNG[r], e.cfg.Seed, trial, Rank(r))
		}
		Reseed(sc.orderRNG, e.cfg.Seed, int64(trial), 0x0deb)

		for iter := 1; iter <= e.cfg.Iterations; iter++ {
			st := IterationStats{Trial: trial, Iteration: iter}
			iterStart := clock.Now()
			if tr != nil {
				tr.Emit(obs.Event{Type: obs.EvIterBegin, Peer: -1, Object: -1,
					Trial: trial, Iteration: iter})
			}

			for _, s := range sc.states {
				s.Reset()
			}
			e.gossip(work, ave, &st)
			e.transferPass(work, ave, &st)

			st.Imbalance = work.Imbalance() // Algorithm 3 line 9
			st.ElapsedSeconds = clock.Since(iterStart).Seconds()
			if tr != nil {
				tr.Emit(obs.Event{Type: obs.EvIterEnd, Peer: -1, Object: -1,
					Trial: trial, Iteration: iter, Value: st.Imbalance,
					Dur: clock.Since(iterStart)})
			}
			res.History = append(res.History, st)
			if st.Imbalance < res.FinalImbalance { // line 10: keep the best
				res.FinalImbalance = st.Imbalance
				res.BestTrial, res.BestIteration = trial, iter
				sc.bestOwners = work.AppendOwners(sc.bestOwners[:0])
				sc.haveBest = true
			}
		}
	}

	if tr != nil {
		tr.Emit(obs.Event{Type: obs.EvLBEnd, Peer: -1, Object: -1,
			Value: res.FinalImbalance})
	}

	if sc.haveBest {
		orig := a.Owners()
		for id := range orig {
			if orig[id] != sc.bestOwners[id] {
				res.Moves = append(res.Moves, Move{Task: TaskID(id), From: orig[id], To: sc.bestOwners[id]})
			}
		}
	}
	return res, nil
}

// Apply commits the result's moves to the assignment.
func (r *Result) Apply(a *Assignment) {
	for _, m := range r.Moves {
		a.Move(m.Task, m.To)
	}
}

// gossip simulates the asynchronous inform stage: underloaded ranks seed
// messages, and a FIFO queue delivers them, each exactly once, until
// quiescence — the synchronous stand-in for termination detection over
// the reliable delivery the runtime provides. Message and payload counts
// are recorded in st.
func (e *Engine) gossip(work *Assignment, ave float64, st *IterationStats) {
	states, q := e.sc.states, e.sc.gossip[:0]
	for r := range states {
		q = append(q, states[r].Begin(ave, work.RankLoad(Rank(r)))...)
	}
	for head := 0; head < len(q); head++ {
		s := q[head]
		st.GossipMessages++
		st.GossipEntries += s.Msg.Len()
		more, _ := states[s.To].Receive(*s.Msg)
		q = append(q, more...)
	}
	e.sc.gossip = q
}

// transferPass runs the transfer stage for every overloaded rank, in a
// seeded random order, applying accepted transfers to the working
// assignment eagerly. Each rank decides with its own gossip-stale
// knowledge ("each overloaded rank working in isolation", §V-A), so an
// underloaded rank may still be overloaded by several senders; eager
// application only makes later-processed ranks see their true own load.
func (e *Engine) transferPass(work *Assignment, ave float64, st *IterationStats) {
	sc := &e.sc
	permInto(sc.orderRNG, sc.order)
	overloaded, knowSum := 0, 0
	for _, ri := range sc.order {
		r := Rank(ri)
		load := work.RankLoad(r)
		if load <= e.cfg.Threshold*ave {
			continue
		}
		overloaded++
		k := sc.states[r].Knowledge().Len()
		knowSum += k
		if overloaded == 1 || k < st.KnowledgeMin {
			st.KnowledgeMin = k
		}
		sc.tasks = work.AppendTasksOf(sc.tasks[:0], r)
		proposals, ts, _ := RunTransferScratch(r, sc.tasks, load, ave, sc.states[r].Knowledge(), &e.cfg.Config, sc.transferRNG[r], nil, &sc.xfer)
		st.Rejected += ts.Rejected
		st.NoCandidate += ts.NoCandidate
		st.Transfers += len(proposals)
		for _, p := range proposals {
			work.Move(p.Task, p.To)
		}
	}
	if overloaded > 0 {
		st.KnowledgeAvg = float64(knowSum) / float64(overloaded)
	}
}

// String summarizes a result for logs.
func (r *Result) String() string {
	return fmt.Sprintf("I %.4g -> %.4g (best trial %d iter %d, %d moves)",
		r.InitialImbalance, r.FinalImbalance, r.BestTrial, r.BestIteration, len(r.Moves))
}
