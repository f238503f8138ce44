package core

import "math/rand"

// Proposal is one scheduled task transfer produced by the transfer
// stage: task Task moves to rank To. Transfers are deferred — recorded
// in M^p and TARGET^p — and only executed once the refinement of
// Algorithm 3 has selected the best distribution.
type Proposal struct {
	Task TaskID
	To   Rank
}

// TransferStats counts the decisions of one transfer-stage execution.
type TransferStats struct {
	// Accepted is the number of proposed transfers (|M^p| growth).
	Accepted int
	// Rejected counts false EVALUATECRITERION outcomes.
	Rejected int
	// NoCandidate counts loop exits because the CMF had no positive mass
	// (every known rank at or above the normalization level).
	NoCandidate int
}

// Affinity carries nothing and RunTransferScratch ignores it: recipients
// are chosen by load alone, the same in every driver. It is kept only
// because the benchmark's probes (bench/probes.go), frozen with their
// recorded reference values, still pass a nil one; it goes, with the
// parameter, when the benchmark is unfrozen (ROADMAP item 4).
type Affinity struct{}

// TransferScratch holds the buffers one transfer-stage execution needs —
// the CMF with its candidates' loads, the ordered/kept task double buffer,
// and the proposal list — so a driver that runs the stage once per
// overloaded rank per iteration (the engine, the distributed balancer) can
// reuse them and keep the hot loop allocation-free. Nothing in it outlives
// a stage, so one scratch serves any rank: the engine keeps one, the
// distributed balancer lends one from a node-wide pool to each running
// stage. The zero value is ready to use. A scratch must not be shared
// between concurrently running stages.
type TransferScratch struct {
	cmf       CMF
	tasks     []Task
	kept      []Task
	proposals []Proposal
}

// RunTransferScratch executes the transfer stage (Algorithm 2) for one
// overloaded rank, drawing every buffer it needs from scr.
//
// tasks is the rank's current task set T^p, copied, not modified;
// selfLoad its load l^p; ave the global average l_ave. know is the
// rank's gossip knowledge and is only read: accepted transfers bump the
// recipient's known load (line 12) in scr's CMF, so subsequent decisions
// — and the CMF itself, when cfg.RecomputeCMF is set — see them. rng
// must be the rank's private generator; the *Affinity is ignored.
//
// It returns the proposals, the decision statistics, and the rank's
// load after the scheduled transfers. The proposals are backed by scr
// and valid only until its next run; callers that retain them must copy.
func RunTransferScratch(self Rank, tasks []Task, selfLoad, ave float64, know *Knowledge, cfg *Config, rng *rand.Rand, _ *Affinity, scr *TransferScratch) ([]Proposal, TransferStats, float64) {
	var st TransferStats
	scr.proposals = scr.proposals[:0]
	if know.Len() == 0 {
		return nil, st, selfLoad
	}

	maxPasses := cfg.Passes
	if maxPasses <= 0 {
		// Until quiescence: bounded by the task count since every pass
		// must accept at least one transfer to continue.
		maxPasses = len(tasks) + 1
	}

	scr.tasks = append(scr.tasks[:0], tasks...)
	remaining := scr.tasks
	for pass := 0; pass < maxPasses && selfLoad > cfg.Threshold*ave && len(remaining) > 0; pass++ {
		scr.kept = scr.kept[:0]
		accepted, done := transferPass(pass, self, remaining, &selfLoad, ave, know, cfg, rng, scr, &st)
		// The rejected tasks become the next pass's input; the spent
		// buffer becomes the next pass's kept list (double buffering).
		scr.tasks, scr.kept = scr.kept, scr.tasks
		remaining = scr.tasks
		if done || accepted == 0 {
			break
		}
	}
	return scr.proposals, st, selfLoad
}

// transferPass makes one traversal of the task list (the body of
// Algorithm 2's while loop). It appends accepted proposals to
// scr.proposals, keeps rejected tasks in scr.kept for a possible next
// pass, and reports the number of acceptances plus whether the loop
// ended for good (no longer overloaded or no candidate mass left).
// ordered is sorted in place; it must be scratch-owned.
//
// The CMF is built once per pass (line 5): from the knowledge on the
// first, from its own loads after. With cfg.RecomputeCMF each accepted
// transfer then raises its recipient in it (line 7), which keeps it the
// CMF a rebuild over the updated loads would give.
func transferPass(pass int, self Rank, ordered []Task, selfLoad *float64, ave float64, know *Knowledge, cfg *Config, rng *rand.Rand, scr *TransferScratch, st *TransferStats) (accepted int, done bool) {
	OrderTasksInPlace(ordered, ave, *selfLoad, cfg.Order)

	var built bool // line 5
	if pass == 0 {
		built = scr.cmf.Build(know, self, ave, cfg.CMF)
	} else {
		built = scr.cmf.Rebuild()
	}
	if !built {
		st.NoCandidate++
		return 0, true
	}

	n := 0
	for ; *selfLoad > cfg.Threshold*ave && n < len(ordered); n++ {
		if !scr.cmf.hasMass() {
			st.NoCandidate++
			return accepted, true
		}
		o := ordered[n]
		px, i := scr.cmf.Sample(rng)                            // line 9
		lx := scr.cmf.Load(i)                                   // line 10
		if cfg.Criterion.Evaluate(lx, o.Load, ave, *selfLoad) { // line 11
			scr.cmf.load[i] = lx + o.Load // line 12
			if cfg.RecomputeCMF {
				scr.cmf.Raise(i, lx, lx+o.Load) // line 7
			}
			*selfLoad -= o.Load // line 13
			scr.proposals = append(scr.proposals, Proposal{Task: o.ID, To: px})
			st.Accepted++
			accepted++
		} else {
			st.Rejected++
			scr.kept = append(scr.kept, o)
		}
	}
	scr.kept = append(scr.kept, ordered[n:]...)
	return accepted, false
}

// Objective is the paper's objective function F(D) = I_D − h + 1 =
// l_max/l_ave − h (§V-B). The transfer criterion of §V-C is proven to be
// the loosest one under which F monotonically decreases.
func Objective(loads []float64, h float64) float64 {
	if len(loads) == 0 {
		return -h
	}
	max, sum := 0.0, 0.0
	for _, l := range loads {
		if l > max {
			max = l
		}
		sum += l
	}
	if sum == 0 {
		return -h
	}
	return max/(sum/float64(len(loads))) - h
}
