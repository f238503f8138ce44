package cli

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"temperedlb/internal/amt"
	"temperedlb/internal/comm/wire"
)

// TestValidateGeometry drives the one validation path every runtime binary
// takes (Runtime.Validate) through one node's geometry, the strictest:
// node index, listen address and rendezvous included. The last rows are
// the in-process case (no node flag set), which lbserve always takes.
func TestValidateGeometry(t *testing.T) {
	type args struct {
		ranks, nodes, node, fanout, rounds          int
		transport, listen, peers, coordAddr, faults string
		inProcess                                   bool
	}
	ok := args{ranks: 12, nodes: 2, node: 0, fanout: 4, transport: "tcp", peers: "peers.txt"}
	inProcess := func(a *args) { a.inProcess, a.peers, a.node = true, "", -1 }
	cases := []struct {
		name    string
		mutate  func(*args)
		wantErr string // substring; empty means valid
	}{
		{"valid static tcp", func(a *args) {}, ""},
		{"valid coord unix", func(a *args) {
			a.transport, a.listen = "unix", "/tmp/lb.sock"
			a.peers, a.coordAddr = "", "127.0.0.1:9999"
		}, ""},
		{"single node job", func(a *args) { a.nodes, a.node = 1, 0 }, ""},
		{"zero ranks", func(a *args) { a.ranks = 0 }, "-ranks 0"},
		{"negative ranks", func(a *args) { a.ranks = -3 }, "-ranks -3"},
		{"zero nodes", func(a *args) { a.nodes = 0 }, "-nodes 0"},
		{"ranks below nodes", func(a *args) { a.ranks, a.nodes = 2, 5 }, "ranks must be >= nodes"},
		{"node unset", func(a *args) { a.node = -1 }, "outside [0,2)"},
		{"node too high", func(a *args) { a.node = 2 }, "outside [0,2)"},
		{"unknown transport", func(a *args) { a.transport = "quic" }, `-transport "quic"`},
		{"unix without listen", func(a *args) { a.transport = "unix" }, "-listen socket path"},
		{"both rendezvous", func(a *args) { a.coordAddr = "127.0.0.1:9999" }, "pick one"},
		{"no rendezvous", func(a *args) { a.peers = "" }, "no rendezvous configured"},

		{"fanout one", func(a *args) { a.fanout = 1 }, "-fanout 1"},
		{"negative rounds", func(a *args) { a.rounds = -1 }, "-rounds -1"},
		{"rounds past the forwarded mask", func(a *args) { a.rounds = 65 }, "-rounds 65: want in [0,64]"},
		{"bad fault spec", func(a *args) { a.faults = "drop" }, "-faults"},
		{"memory transport", func(a *args) { a.transport = "memory" }, "want tcp or unix"},
		{"in-process memory", func(a *args) { inProcess(a); a.transport = "memory" }, ""},
		{"in-process memory ignores nodes", func(a *args) { inProcess(a); a.transport, a.nodes = "memory", 0 }, ""},
		{"in-process unix", func(a *args) { inProcess(a); a.transport = "unix" }, ""},
		{"in-process zero ranks", func(a *args) { inProcess(a); a.transport, a.ranks = "memory", 0 }, "-ranks 0"},
		{"in-process zero nodes", func(a *args) { inProcess(a); a.transport, a.nodes = "unix", 0 }, "-nodes 0"},
		{"in-process nodes above ranks", func(a *args) { inProcess(a); a.nodes = 13 }, "ranks must be >= nodes"},
		{"in-process fanout one", func(a *args) { inProcess(a); a.transport, a.fanout = "memory", 1 }, "-fanout 1"},
		{"in-process unknown transport", func(a *args) { inProcess(a); a.transport = "quic" }, "want memory, unix or tcp"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := ok
			tc.mutate(&a)
			rt := Runtime{
				Transport: a.transport, Nodes: a.nodes, Fanout: a.fanout, Rounds: a.rounds, Faults: a.faults,
				Node: a.node, Listen: a.listen, Peers: a.peers, Coord: a.coordAddr,
			}
			if a.inProcess != !rt.isNode() {
				t.Fatalf("row hosts the whole job: %v, flags say %v", a.inProcess, !rt.isNode())
			}
			err := rt.Validate(a.ranks)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid geometry rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted; want error containing %q", tc.wantErr)
			}
			if !strings.HasPrefix(err.Error(), "-") && !strings.HasPrefix(err.Error(), "no rendezvous") {
				t.Errorf("error %q does not start with the flag it is about", err)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// runWatched is job.Run under a watchdog: a job whose ranks are left parked
// fails the test instead of hanging it.
func runWatched(t *testing.T, job *amt.Job, bind func(*amt.Runtime) func(*amt.Context) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- job.Run(bind) }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Run has not returned after 10s: ranks are parked on one that is gone")
		return nil
	}
}

// refusedOn returns a rank body that returns an error on the ranks for
// which erring holds while every other rank waits for them in a barrier.
func refusedOn(erring func(rank int) bool) func(*amt.Runtime) func(*amt.Context) error {
	return func(*amt.Runtime) func(*amt.Context) error {
		return func(rc *amt.Context) error {
			if erring(int(rc.Rank())) {
				return errors.New("config refused")
			}
			rc.Barrier()
			return nil
		}
	}
}

// TestReturnedErrorEndsTheJob: a rank that returns an error while its peers
// wait on it ends the job — in memory and over an in-process socket cluster
// alike — and Run returns that rank's error, not the closed-network panics
// of the ranks it released. They used to stay parked and Run never returned.
func TestReturnedErrorEndsTheJob(t *testing.T) {
	for _, network := range []string{"memory", "unix"} {
		job, err := amt.Launch(network, 4, 2, 98)
		if err != nil {
			t.Fatal(err)
		}
		err = runWatched(t, job, refusedOn(func(rank int) bool { return rank == 2 }))
		job.Close()
		if err == nil || err.Error() != "rank 2: config refused" {
			t.Errorf("%s: got %v, want rank 2's error", network, err)
		}
	}
}

// TestNodeErrorNamesTheFailedTransport: one node's share of a job (amt.Join
// over the transport it connected) reports a rank's error as an error —
// the process used to die inside the rank body, transport open — and hangs
// up on its peers, so the node whose ranks were waiting on it reports a
// lost connection instead of waiting forever on one that said goodbye. When
// a stray client has failed the node's socket with garbage, Run says that
// ahead of the rank error.
func TestNodeErrorNamesTheFailedTransport(t *testing.T) {
	cluster, err := wire.NewCluster("unix", 4, 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	refused := refusedOn(func(rank int) bool { return rank >= 2 }) // node 1's ranks
	peer := make(chan error, 1)
	go func() { peer <- amt.Join("unix", cluster.Transports[1]).Run(refused) }()
	err = runWatched(t, amt.Join("unix", cluster.Transports[0]), refused)
	if err == nil || !strings.HasPrefix(err.Error(), "unix transport failed: wire: connection from node 1 lost before BYE") {
		t.Errorf("node 0: got %v", err)
	}
	if err := <-peer; err == nil || err.Error() != "rank 2: config refused" {
		t.Errorf("node 1: got %v", err)
	}

	cluster, err = wire.NewCluster("unix", 4, 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	victim := cluster.Transports[1]
	conn, err := net.Dial("unix", victim.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0, 0, 0, 2, 0xEE, 0xEE}); err != nil {
		t.Fatal(err)
	}
	lo, _ := victim.LocalRange()
	if _, ok := victim.RecvWait(lo); ok { // returns once the failed transport has closed itself
		t.Fatal("message on an idle transport")
	}
	err = amt.Join("unix", victim).Run(refused)
	if err == nil || !strings.HasPrefix(err.Error(), "unix transport failed: ") {
		t.Fatalf("failed transport: got %v", err)
	}
}

// TestCoordIsServedByNodeZero: three nodes given one -coord address and
// ephemeral listen ports, started in any order — here node 0, which serves
// the rendezvous the others are already dialing, last — form one job with
// no coordinator process.
func TestCoordIsServedByNodeZero(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord := ln.Addr().String() // free now, and most likely a moment from now
	ln.Close()

	const ranks, nodes = 7, 3
	sums := make([]float64, ranks)
	done := make(chan error, nodes)
	for _, node := range []int{2, 1, 0} {
		r := Runtime{
			Transport: "tcp", Nodes: nodes, Fanout: 2,
			Node: node, Listen: "127.0.0.1:0", Coord: coord, Timeout: 20 * time.Second,
		}
		if err := r.Validate(ranks); err != nil {
			t.Fatal(err)
		}
		go func() {
			job, err := r.Launch(ranks, 11)
			if err != nil {
				done <- err
				return
			}
			defer job.Close()
			done <- job.Run(func(*amt.Runtime) func(*amt.Context) error {
				return func(rc *amt.Context) error {
					sums[rc.Rank()] = rc.AllReduce(float64(rc.Rank()), amt.ReduceSum)
					return nil
				}
			})
		}()
		time.Sleep(20 * time.Millisecond) // so the order is the one written
	}
	for range nodes {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
	for r, s := range sums {
		if s != ranks*(ranks-1)/2 {
			t.Errorf("rank %d: sum of ranks %v, want %d", r, s, ranks*(ranks-1)/2)
		}
	}
}
