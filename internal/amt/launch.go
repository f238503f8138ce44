package amt

import (
	"fmt"
	"sync"

	"temperedlb/internal/comm/wire"
)

// Job is what this process hosts of a job. Launch stands a whole job up
// here: a single Runtime over every rank on the in-memory network; on
// "unix" or "tcp" an in-process socket cluster, one Runtime per node, each
// hosting a contiguous rank range behind a partial network joined to the
// others by real OS sockets. Join wraps one node of that topology when it
// is spread over processes (`lbplay -distributed -node k`).
type Job struct {
	// Runtimes holds one runtime per node this process hosts, in node
	// order. Before Run, give whichever node should have them a tracer,
	// metrics, a stream (SetTracer, EnableMetrics, SetStream) or faults.
	Runtimes []*Runtime

	network string
	cluster *wire.Cluster // nil unless Launch built one
}

// Launch stands up a job of ranks ranks on network "memory", "unix" or
// "tcp"; the socket networks split them over nodes in-process nodes
// (ignored on "memory") whose connections jobID guards. opts apply to
// every runtime. A geometry no job can have is an error, not a panic
// further down. Close the job when done with it.
func Launch(network string, ranks, nodes int, jobID uint64, opts ...Option) (*Job, error) {
	if ranks < 1 {
		return nil, fmt.Errorf("amt: launch: %d ranks: a job needs at least one", ranks)
	}
	switch network {
	case "memory":
		return &Job{Runtimes: []*Runtime{New(ranks, opts...)}, network: network}, nil
	case "unix", "tcp":
	default:
		return nil, fmt.Errorf("amt: launch: unknown network %q (want memory, unix or tcp)", network)
	}
	if nodes < 1 || nodes > ranks {
		return nil, fmt.Errorf("amt: launch: %d nodes for %d ranks: need 1 <= nodes <= ranks", nodes, ranks)
	}
	cluster, err := wire.NewCluster(network, ranks, nodes, jobID)
	if err != nil {
		return nil, err
	}
	j := &Job{network: network, cluster: cluster}
	for _, tr := range cluster.Transports {
		j.Runtimes = append(j.Runtimes, New(ranks, append([]Option{WithTransport(tr)}, opts...)...))
	}
	return j, nil
}

// Join is this process's share of a multi-process job: one runtime over a
// transport the caller has connected to its peers (cli.Runtime.Launch under
// -node, after reading its peers file). network names it in Run's error;
// Close it.
func Join(network string, tr *wire.Transport, opts ...Option) *Job {
	return &Job{
		Runtimes: []*Runtime{New(tr.NumRanks(), append([]Option{WithTransport(tr)}, opts...)...)},
		network:  network,
	}
}

// Run calls bind once per runtime on the caller's goroutine — the place
// to register handlers, which are per runtime — then runs the rank body
// each call returned on every rank of its runtime, all runtimes at once,
// and waits. A rank that returns an error ends the job: ranks parked on it,
// here or on another process's node, unwind instead of waiting forever. Run
// returns one error: a transport that failed (a lost peer, a bad frame) is
// named first, because it is usually what the ranks then tripped over; then
// the lowest erring rank's own error, ahead of the panics it set off. Any
// other runtime panic is re-raised here, the other nodes closed; a rank's
// bug — a panic on a node whose network was still open — outranks even a
// transport failure, which on this process's other nodes it causes itself.
func (j *Job) Run(bind func(rt *Runtime) func(rc *Context) error) error {
	errs := make([]error, j.Runtimes[0].NumRanks())
	var (
		wg     sync.WaitGroup
		first  sync.Once
		raised any
		bugs   = make([]any, len(j.Runtimes))
	)
	for i, rt := range j.Runtimes {
		body := bind(rt)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					if rt.bug {
						bugs[i] = p
					}
					first.Do(func() {
						raised = p
						j.Close() // the other nodes' ranks are waiting on this one's
					})
				}
			}()
			rt.Run(func(rc *Context) {
				if err := body(rc); err != nil {
					errs[rc.Rank()] = err
					first.Do(j.abort) // its peers may be waiting on this rank
				}
			})
		}()
	}
	wg.Wait()
	for _, p := range bugs {
		if p != nil {
			panic(p)
		}
	}
	for _, rt := range j.Runtimes {
		if rt.link != nil && rt.link.Err() != nil {
			return fmt.Errorf("%s transport failed: %w", j.network, rt.link.Err())
		}
	}
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	if raised != nil {
		panic(raised)
	}
	return nil
}

// abort closes the job under its running ranks; one node of a job spread
// over processes hangs up first, so its peers see it lost, not leaving.
func (j *Job) abort() {
	if j.cluster == nil {
		for _, rt := range j.Runtimes {
			if rt.link != nil {
				rt.link.Abort()
			}
		}
	}
	j.Close()
}

// Stats folds the view of every node this process hosts: the job's, when
// it hosts them all. Safe to call at any time, as Runtime.Stats is.
func (j *Job) Stats() (ns NodeStats) {
	for _, rt := range j.Runtimes {
		rt.addStats(&ns)
	}
	return ns
}

// Close closes every node's network, tearing the job's sockets down and
// removing what they left on disk. Idempotent.
func (j *Job) Close() {
	if j.cluster != nil {
		j.cluster.Close()
		return
	}
	for _, rt := range j.Runtimes {
		rt.close()
	}
}
