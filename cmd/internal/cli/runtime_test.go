package cli

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"temperedlb/internal/amt"
	"temperedlb/internal/comm/wire"
)

// TestValidateGeometry drives the one validation path every runtime binary
// takes (Runtime.Validate, after Balancer.Validate where it takes -rounds)
// through one node's geometry, the strictest: node index and peers file
// included. The last rows are the in-process case (no node flag set),
// which lbserve always takes.
func TestValidateGeometry(t *testing.T) {
	type args struct {
		ranks, nodes, node, rounds int
		transport, peers, faults   string
		inProcess                  bool
	}
	ok := args{ranks: 12, nodes: 2, node: 0, transport: "tcp", peers: "peers.txt"}
	inProcess := func(a *args) { a.inProcess, a.peers, a.node = true, "", -1 }
	cases := []struct {
		name    string
		mutate  func(*args)
		wantErr string // substring; empty means valid
	}{
		{"valid static tcp", func(a *args) {}, ""},
		{"unix without listen", func(a *args) { a.transport = "unix" }, ""},
		{"single node job", func(a *args) { a.nodes, a.node = 1, 0 }, ""},
		{"zero ranks", func(a *args) { a.ranks = 0 }, "-ranks 0"},
		{"negative ranks", func(a *args) { a.ranks = -3 }, "-ranks -3"},
		{"zero nodes", func(a *args) { a.nodes = 0 }, "-nodes 0"},
		{"ranks below nodes", func(a *args) { a.ranks, a.nodes = 2, 5 }, "ranks must be >= nodes"},
		{"node unset", func(a *args) { a.node = -1 }, "outside [0,2)"},
		{"node too high", func(a *args) { a.node = 2 }, "outside [0,2)"},
		{"unknown transport", func(a *args) { a.transport = "quic" }, `-transport "quic"`},
		{"no rendezvous", func(a *args) { a.peers = "" }, "-node 0 needs -peers"},

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
		{"in-process unknown transport", func(a *args) { inProcess(a); a.transport = "quic" }, "want memory, unix or tcp"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := ok
			tc.mutate(&a)
			rt := Runtime{
				Transport: a.transport, Nodes: a.nodes, Faults: a.faults,
				Node: a.node, Peers: a.peers,
			}
			if a.inProcess != !rt.isNode() {
				t.Fatalf("row hosts the whole job: %v, flags say %v", a.inProcess, !rt.isNode())
			}
			err := (&Balancer{Rounds: a.rounds}).Validate()
			if err == nil {
				err = rt.Validate(a.ranks)
			}
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid geometry rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted; want error containing %q", tc.wantErr)
			}
			if !strings.HasPrefix(err.Error(), "-") {
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

// freeAddrs returns n loopback tcp addresses that were free a moment ago,
// and most likely still are.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return addrs
}

// writePeers writes a peers file naming addrs[k] for node k.
func writePeers(t *testing.T, addrs []string) string {
	t.Helper()
	var b strings.Builder
	for k, addr := range addrs {
		fmt.Fprintf(&b, "%d %s\n", k, addr)
	}
	path := filepath.Join(t.TempDir(), "peers")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPeersFileIsTheOnlyRendezvous: three tcp nodes given one peers file and
// nothing else about addresses — no listen address, no coordinator — each
// listen at their own line and form one job, whatever order they start in:
// here 2, 1, 0, each dialing peers that are not up yet.
func TestPeersFileIsTheOnlyRendezvous(t *testing.T) {
	const ranks, nodes = 7, 3
	peers := writePeers(t, freeAddrs(t, nodes))
	sums := make([]float64, ranks)
	done := make(chan error, nodes)
	for _, node := range []int{2, 1, 0} {
		r := Runtime{Transport: "tcp", Nodes: nodes, Node: node, Peers: peers, Timeout: 20 * time.Second}
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
		if s != 21 {
			t.Errorf("rank %d: sum of ranks %v, want 21", r, s)
		}
	}
}

// TestTakenAddressFailsAtOnce: a node whose own line in the peers file names
// an address something else already holds says so at once, naming the flag,
// the file and the node — before it dials any peer, and long before the
// connect timeout.
func TestTakenAddressFailsAtOnce(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	peer, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	peers := writePeers(t, []string{held.Addr().String(), peer.Addr().String()})

	r := Runtime{Transport: "tcp", Nodes: 2, Node: 0, Peers: peers, Timeout: 20 * time.Second}
	start := time.Now()
	job, err := r.Launch(4, 12)
	if took := time.Since(start); took > time.Second {
		t.Errorf("Launch took %v, want within 1s", took)
	}
	if err == nil {
		job.Close()
		t.Fatal("Launch on a taken address succeeded")
	}
	if want := fmt.Sprintf("-peers %s: node 0 cannot listen at its own line's address: ", peers); !strings.HasPrefix(err.Error(), want) {
		t.Errorf("got %q, want it to start with %q", err, want)
	}
	peer.(*net.TCPListener).SetDeadline(time.Now().Add(50 * time.Millisecond))
	if conn, err := peer.Accept(); err == nil {
		conn.Close()
		t.Error("the node dialed its peer after failing to listen")
	}
}
