package cli

import (
	"flag"
	"fmt"

	"temperedlb/internal/amt"
	"temperedlb/internal/comm"
	"temperedlb/internal/comm/wire"
	"temperedlb/internal/core"
	"temperedlb/internal/lb/tempered"
)

// Runtime is the flag group of the job a run is hosted on: its message
// substrate and geometry, the runtime's collective tree, injected faults,
// and the gossip rounds of the protocol run on it.
type Runtime struct {
	Transport             string
	Nodes, Fanout, Rounds int
	Faults                string
}

// Register declares -transport -nodes -fanout -faults -rounds on fs and
// returns the names it declared.
func (r *Runtime) Register(fs *flag.FlagSet, only ...string) []string {
	return register(fs, only, func(g *flag.FlagSet) {
		g.StringVar(&r.Transport, "transport", r.Transport, "message substrate: memory | unix | tcp (unix and tcp run an in-process socket cluster; lbnode, one process of a multi-process job, takes unix | tcp)")
		g.IntVar(&r.Nodes, "nodes", r.Nodes, "nodes of a socket job: in-process nodes under -transport unix|tcp, processes for lbnode and lbcoord (must match on all of them)")
		g.IntVar(&r.Fanout, "fanout", r.Fanout, "arity (>= 2) of the runtime's collective reduction tree")
		g.StringVar(&r.Faults, "faults", r.Faults, "inject transport faults, e.g. \"seed=7,drop=0.01,dup=0.01,delay=5ms,slow=3:2ms\" (lbaf and empire apply them to the simulated gossip, where the retry knobs are no-ops)")
		g.IntVar(&r.Rounds, "rounds", r.Rounds, "gossip rounds per iteration (0 = strategy default; cross-transport diffs need -rounds 1)")
	})
}

// Self is where one process of a multi-process job (lbnode) stands in it:
// its node index, its listen address and how it finds its peers.
type Self struct {
	Node                 int
	Listen, Peers, Coord string
}

// Validate rejects, before anything is stood up, a geometry no job can
// have, with an error that names the flag and the fix — each of these
// otherwise surfaces late: a panic in SplitRanks or SetFanout, a listen
// error, a silent hang waiting for a peer set that can never agree. self
// is nil for a job hosted in this one process, which may also run on the
// in-memory transport, where -nodes is not read.
func (r *Runtime) Validate(ranks int, self *Self) error {
	if ranks < 1 {
		return fmt.Errorf("-ranks %d: a job needs at least one rank", ranks)
	}
	if r.Fanout < 2 {
		return fmt.Errorf("-fanout %d: a reduction tree needs arity >= 2", r.Fanout)
	}
	if r.Rounds < 0 {
		return fmt.Errorf("-rounds %d: want >= 0 (0 = strategy default)", r.Rounds)
	}
	if _, err := r.FaultSpec(); err != nil {
		return err
	}
	switch {
	case r.Transport == "memory" && self == nil:
		return nil
	case r.Transport != "unix" && r.Transport != "tcp":
		want := "memory, unix or tcp"
		if self != nil {
			want = "tcp or unix"
		}
		return fmt.Errorf("-transport %q: want %s", r.Transport, want)
	case r.Transport == "unix" && self != nil && self.Listen == "":
		return fmt.Errorf("-transport unix needs an explicit -listen socket path")
	}
	if r.Nodes < 1 {
		return fmt.Errorf("-nodes %d: a job needs at least one node", r.Nodes)
	}
	if ranks < r.Nodes {
		return fmt.Errorf("-ranks %d < -nodes %d: every node hosts at least one rank, so ranks must be >= nodes", ranks, r.Nodes)
	}
	if self == nil {
		return nil
	}
	if self.Node < 0 || self.Node >= r.Nodes {
		return fmt.Errorf("-node %d outside [0,%d); every process needs a distinct index", self.Node, r.Nodes)
	}
	if self.Peers != "" && self.Coord != "" {
		return fmt.Errorf("-peers and -coord are both set; they are competing rendezvous mechanisms, pick one")
	}
	if self.Peers == "" && self.Coord == "" {
		return fmt.Errorf("no rendezvous configured: give either -peers <file> (static) or -coord <host:port> (lbcoord)")
	}
	return nil
}

// FaultSpec parses -faults; the empty flag is the empty spec.
func (r *Runtime) FaultSpec() (comm.FaultSpec, error) {
	sp, err := comm.ParseFaultSpec(r.Faults)
	if err != nil {
		return sp, fmt.Errorf("-faults: %w", err)
	}
	return sp, nil
}

// Launch stands up in this process the job the flags describe
// (amt.Launch), fault plan installed on every node. Validate first, right
// after parsing, so a bad flag is refused before any work; Close the job.
func (r *Runtime) Launch(ranks int, jobID uint64) (*amt.Job, error) {
	job, err := amt.Launch(r.Transport, ranks, r.Nodes, jobID, amt.WithFanout(r.Fanout))
	if err != nil {
		return nil, err
	}
	return r.withFaults(job)
}

// Join is Launch for one process of a multi-process job: its share of the
// job over tr, which the caller has connected to its peers.
func (r *Runtime) Join(tr *wire.Transport) (*amt.Job, error) {
	return r.withFaults(amt.Join(r.Transport, tr, amt.WithFanout(r.Fanout)))
}

func (r *Runtime) withFaults(job *amt.Job) (*amt.Job, error) {
	sp, err := r.FaultSpec()
	if err != nil {
		job.Close()
		return nil, err
	}
	for _, rt := range job.Runtimes {
		if err := rt.SetFaults(sp); err != nil {
			job.Close()
			return nil, fmt.Errorf("-faults: %w", err)
		}
	}
	return job, nil
}

// RunDemo is the one-shot run `lbplay -distributed` and lbnode share —
// `make wire-smoke` diffs their results, so there is one copy of it: every
// rank creates its tasks of a as objects (state: the load itself), the
// job barriers, and the distributed balancer runs at the demo's 4 trials
// × 4 iterations. It returns every local rank's result, indexed by rank.
func (r *Runtime) RunDemo(job *amt.Job, a *core.Assignment, seed int64) ([]tempered.DistResult, error) {
	cfg := core.Tempered()
	cfg.Trials, cfg.Iterations = 4, 4
	cfg.Seed = seed
	if r.Rounds > 0 {
		cfg.Rounds = r.Rounds
	}
	results := make([]tempered.DistResult, a.NumRanks())
	err := job.Run(func(rt *amt.Runtime) func(*amt.Context) error {
		h := tempered.RegisterHandlers(rt, 1)
		return func(rc *amt.Context) (err error) {
			loads := map[amt.ObjectID]float64{}
			for _, task := range a.TasksOf(rc.Rank()) {
				id := rc.CreateObject(task.Load)
				loads[id] = task.Load
			}
			rc.Barrier()
			results[rc.Rank()], err = tempered.RunDistributed(rc, h, cfg, loads)
			return err
		}
	})
	return results, err
}
