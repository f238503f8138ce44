package cli

import (
	"flag"
	"fmt"
	"log"
	"time"

	"temperedlb/internal/amt"
	"temperedlb/internal/comm"
	"temperedlb/internal/comm/wire"
)

// Runtime is the flag group of the job a run is hosted on: its message
// substrate and geometry, and injected faults.
type Runtime struct {
	Transport string
	Nodes     int
	Faults    string

	// One node of a job spread over processes (Node -1: the whole job is
	// hosted here), and the peers file that names every node's listen
	// address, its own included; the flags above must then match on every
	// node, -faults (this node's sends) apart.
	Node    int
	Peers   string
	JobID   uint64
	Timeout time.Duration
	Verbose bool
}

// Register declares -transport -nodes -faults and the node flags
// -node -peers -jobid -timeout -v on fs and returns the names it declared.
// -node and -timeout have one default for every binary (-1, 30s), set even
// where the binary does not take them.
func (r *Runtime) Register(fs *flag.FlagSet, only ...string) []string {
	return register(fs, only, func(g *flag.FlagSet) {
		g.StringVar(&r.Transport, "transport", r.Transport, "message substrate: memory | unix | tcp (unix and tcp run an in-process socket cluster, or with -node one process of a multi-process job)")
		g.IntVar(&r.Nodes, "nodes", r.Nodes, "nodes of a socket job: in-process nodes under -transport unix|tcp, processes with -node (must match on all of them)")
		g.StringVar(&r.Faults, "faults", r.Faults, "inject transport faults, e.g. \"seed=7,drop=0.01,dup=0.01,delay=5ms,slow=3:2ms\" (retries are paced from the delays)")
		g.IntVar(&r.Node, "node", -1, "host only this node, in [0,nodes), of a job spread over -nodes processes; it listens at its -peers line (default: the whole job in this process)")
		g.StringVar(&r.Peers, "peers", r.Peers, "file of \"<node> <addr>\" lines, one per node, the same on every node: where each node listens (host:port for tcp, socket path for unix)")
		g.Uint64Var(&r.JobID, "jobid", r.JobID, "job id guarding against cross-job connections (must match on all nodes; default: derived from -seed)")
		g.DurationVar(&r.Timeout, "timeout", 30*time.Second, "peer-connect timeout")
		g.BoolVar(&r.Verbose, "v", r.Verbose, "log connection lifecycle events")
	})
}

// NodeFlags names the group's flags that only a node of a multi-process job reads.
func NodeFlags() []string { return []string{"peers", "jobid", "timeout", "v"} }

// isNode reports whether the flags describe one node of a multi-process
// job: its index, or the peers file only a node reads (Validate asks the
// index).
func (r *Runtime) isNode() bool { return r.Node >= 0 || r.Peers != "" }

// Validate rejects, before anything is stood up, a geometry no job can
// have, with an error that names the flag and the fix — each of these
// otherwise surfaces late: a panic in SplitRanks, a silent hang waiting
// for a peer set that can never agree. A job hosted whole in this process
// may also run on the in-memory transport, where -nodes is not read; one
// node of a job needs a socket transport and the peers file that says
// where it and every peer listen.
func (r *Runtime) Validate(ranks int) error {
	if ranks < 1 {
		return fmt.Errorf("-ranks %d: a job needs at least one rank", ranks)
	}
	if _, err := r.FaultSpec(); err != nil {
		return err
	}
	node := r.isNode()
	switch {
	case r.Transport == "memory" && !node:
		return nil
	case r.Transport != "unix" && r.Transport != "tcp":
		want := "memory, unix or tcp"
		if node {
			want = "tcp or unix"
		}
		return fmt.Errorf("-transport %q: want %s", r.Transport, want)
	}
	if r.Nodes < 1 {
		return fmt.Errorf("-nodes %d: a job needs at least one node", r.Nodes)
	}
	if ranks < r.Nodes {
		return fmt.Errorf("-ranks %d < -nodes %d: every node hosts at least one rank, so ranks must be >= nodes", ranks, r.Nodes)
	}
	if !node {
		return nil
	}
	if r.Node < 0 || r.Node >= r.Nodes {
		return fmt.Errorf("-node %d outside [0,%d); every process needs a distinct index", r.Node, r.Nodes)
	}
	if r.Peers == "" {
		return fmt.Errorf("-node %d needs -peers: a file of \"<node> <addr>\" lines naming where every node listens", r.Node)
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

// Launch stands up the job the flags describe, fault plan installed on
// every node it hosts: the whole job in this process (amt.Launch), or with
// -node this process's share of it (amt.Join) over a transport connected
// to its peers. Validate first, right after parsing, so a bad flag is
// refused before any work; Close the job.
func (r *Runtime) Launch(ranks int, jobID uint64) (*amt.Job, error) {
	sp, err := r.FaultSpec()
	if err != nil {
		return nil, err
	}
	job, err := r.host(ranks, jobID)
	if err != nil {
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

// host is Launch before the fault plan. A node reads the peers file,
// listens at its own line's address and builds the mesh to the others,
// guarded by -jobid if given, else by jobID.
func (r *Runtime) host(ranks int, jobID uint64) (*amt.Job, error) {
	if !r.isNode() {
		return amt.Launch(r.Transport, ranks, r.Nodes, jobID)
	}
	addrs, err := wire.ParsePeersFile(r.Peers, r.Nodes)
	if err != nil {
		return nil, fmt.Errorf("-peers %s: %w", r.Peers, err)
	}
	if r.JobID != 0 {
		jobID = r.JobID
	}
	cfg := wire.Config{
		Network: r.Transport,
		Ranks:   ranks, Nodes: r.Nodes, Self: r.Node,
		Listen: addrs[r.Node], JobID: jobID,
		ConnectTimeout: r.Timeout,
	}
	if r.Verbose {
		cfg.Logf = log.Printf
	}
	tr, err := wire.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("-peers %s: node %d cannot listen at its own line's address: %w", r.Peers, r.Node, err)
	}
	lo, hi := tr.LocalRange()
	log.Printf("node %d listening on %s (%s), hosting ranks [%d,%d) of %d", r.Node, tr.Addr(), r.Transport, lo, hi, ranks)
	if err := tr.Connect(addrs); err != nil {
		tr.Close()
		return nil, err
	}
	log.Printf("node %d connected to %d peers", r.Node, r.Nodes-1)
	return amt.Join(r.Transport, tr), nil
}
