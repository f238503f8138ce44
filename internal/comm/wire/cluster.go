package wire

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Cluster is a set of socket transports for one job, all hosted in the
// current process. It exists for amt.Launch — the one launcher, which
// puts a runtime on each transport, behind `lbplay -distributed
// -transport unix|tcp`, lbserve and the tests — and for this package's
// own tests: the protocol stack sees genuinely separate partial networks
// talking through the OS socket layer, without the orchestration cost of
// separate processes. Production jobs run one Transport per process
// (`lbplay -distributed -node k`) instead.
type Cluster struct {
	Transports []*Transport
	dir        string
}

// NewCluster listens, exchanges addresses, and connects `nodes`
// transports covering `ranks` ranks over the given network ("tcp" or
// "unix"). Unix sockets live in a fresh temp directory that Close
// removes. On any error, everything already started is torn down.
func NewCluster(network string, ranks, nodes int, jobID uint64) (*Cluster, error) {
	c := &Cluster{}
	if network == "unix" {
		// Socket paths must stay under the ~104-byte sun_path limit, so
		// use the system temp dir rather than a caller-provided one.
		dir, err := os.MkdirTemp("", "lbw")
		if err != nil {
			return nil, err
		}
		c.dir = dir
	}
	for i := 0; i < nodes; i++ {
		cfg := Config{
			Network: network,
			Ranks:   ranks, Nodes: nodes, Self: i,
			JobID: jobID,
		}
		if network == "unix" {
			cfg.Listen = filepath.Join(c.dir, fmt.Sprintf("n%d.sock", i))
		}
		t, err := New(cfg)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster node %d: %w", i, err)
		}
		c.Transports = append(c.Transports, t)
	}
	addrs := make([]string, nodes)
	for i, t := range c.Transports {
		addrs[i] = t.Addr()
	}
	errs := make(chan error, nodes)
	for _, t := range c.Transports {
		go func(t *Transport) { errs <- t.Connect(addrs) }(t)
	}
	for range c.Transports {
		if err := <-errs; err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// Close closes every transport concurrently — each node's drain waits
// for its peers' BYE frames, so sequential closes would serialize on
// the drain timeout — and removes the socket directory. Idempotent.
func (c *Cluster) Close() {
	var wg sync.WaitGroup
	for _, t := range c.Transports {
		if t == nil {
			continue
		}
		wg.Add(1)
		go func(t *Transport) {
			defer wg.Done()
			t.Close()
		}(t)
	}
	wg.Wait()
	if c.dir != "" {
		os.RemoveAll(c.dir)
		c.dir = ""
	}
}
