package amt

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"temperedlb/internal/comm/wire"
)

// erringRanks is a rank body that talks to nobody: the ranks in bad fail.
func erringRanks(bad ...int) func(*Runtime) func(*Context) error {
	return func(*Runtime) func(*Context) error {
		return func(rc *Context) error {
			for _, r := range bad {
				if int(rc.Rank()) == r {
					return errors.New("boom")
				}
			}
			return nil
		}
	}
}

// sendGarbage is a stray client that opens victim's socket and writes what
// is no frame: the transport fails and closes itself, as on a lost peer.
func sendGarbage(t *testing.T, victim *wire.Transport) {
	t.Helper()
	conn, err := net.Dial("unix", victim.Addr())
	if err != nil {
		t.Error(err)
		return
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0, 0, 0, 2, 0xEE, 0xEE}); err != nil {
		t.Error(err)
	}
}

// TestLaunchRefusesImpossibleGeometry: what no job can have is an error
// from Launch, never a panic from New or SplitRanks further down.
func TestLaunchRefusesImpossibleGeometry(t *testing.T) {
	for _, tc := range []struct {
		network      string
		ranks, nodes int
	}{
		{"memory", 0, 1}, {"unix", -2, 1}, {"quic", 4, 2}, {"unix", 4, 0}, {"tcp", 4, 5},
	} {
		if job, err := Launch(tc.network, tc.ranks, tc.nodes, 1); err == nil {
			job.Close()
			t.Errorf("Launch(%q, %d ranks, %d nodes) accepted", tc.network, tc.ranks, tc.nodes)
		}
	}
	job, err := Launch("memory", 3, 0, 1) // the in-memory network has no nodes to count
	if err != nil || len(job.Runtimes) != 1 {
		t.Fatalf("memory job: %d runtimes, %v", len(job.Runtimes), err)
	}
}

// TestRunErrorPrecedence: a clean job returns nil; a memory job the lowest
// erring rank; and a transport failed by a stray client that opens a
// node's socket with garbage is named ahead of the rank errors it causes.
func TestRunErrorPrecedence(t *testing.T) {
	clean, err := Launch("unix", 4, 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	if len(clean.Runtimes) != 2 {
		t.Fatalf("%d runtimes for 2 nodes", len(clean.Runtimes))
	}
	if err := clean.Run(erringRanks()); err != nil {
		t.Fatalf("clean job: %v", err)
	}

	mem, err := Launch("memory", 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Run(erringRanks(3, 2)); err == nil || err.Error() != "rank 2: boom" {
		t.Fatalf("rank error: got %v", err)
	}

	job, err := Launch("unix", 4, 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	defer job.Close()
	victim := job.Runtimes[1].link
	sendGarbage(t, victim)
	lo, _ := victim.LocalRange()
	if _, ok := victim.RecvWait(lo); ok { // returns once the failed transport has closed itself
		t.Fatal("message on an idle transport")
	}
	err = job.Run(erringRanks(2))
	if err == nil || !strings.HasPrefix(err.Error(), "unix transport failed: ") {
		t.Fatalf("failed transport: got %v", err)
	}
}

// TestCloseIsIdempotent: Close removes the unix sockets' directory, and a
// second Close — a deferred one after an explicit one — is harmless, as
// is closing a memory job, which holds nothing.
func TestCloseIsIdempotent(t *testing.T) {
	job, err := Launch("unix", 4, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Dir(job.Runtimes[0].link.Addr())
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("socket directory: %v", err)
	}
	job.Close()
	job.Close()
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("socket directory %s survives Close (stat: %v)", dir, err)
	}
	mem, err := Launch("memory", 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	mem.Close()
	mem.Close()
}

// TestRunContainsARuntimePanic strikes a unix job while its ranks are
// inside an epoch — rank 0 and rank 3 in its body, ranks 1 and 2 parked on
// its termination. A transport that fails under them (a stray client's
// garbage, which is how a lost peer looks from here) is Run's named error
// on the caller, where it used to be the runtime's panic on a goroutine
// nobody could recover; a rank's bug, or a transport closed under a running
// job, is still a panic, but on the caller, after the other node has been
// released — so the deferred Close runs and the socket directory goes. A
// bug is re-raised within a second, on a node with peers too: its node
// hangs up on them rather than waiting out the drain for their goodbye, and
// the bug outranks the lost connection that hanging up leaves them with.
func TestRunContainsARuntimePanic(t *testing.T) {
	await := func(what string, cond func() bool) {
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Errorf("no %s within 5s", what)
				return
			}
		}
	}
	for _, tc := range []struct {
		name      string
		nodes     int
		strike    func(job *Job)
		bug       bool
		wantErr   string // prefix of Run's error
		wantPanic string // substring of Run's panic
	}{
		{name: "failed transport", nodes: 2, wantErr: "unix transport failed: wire: ", strike: func(job *Job) {
			victim := job.Runtimes[1].link
			sendGarbage(t, victim)
			await("transport failure", func() bool { return victim.Err() != nil })
		}},
		{name: "rank bug", nodes: 1, bug: true, wantPanic: "amt: rank 3 panicked: bug", strike: func(*Job) {}},
		{name: "rank bug with a peer", nodes: 2, bug: true, wantPanic: "amt: rank 3 panicked: bug", strike: func(*Job) {}},
		{name: "closed transport", nodes: 2, wantPanic: "closed", strike: func(job *Job) {
			go job.Runtimes[1].link.Close() // returns once Run has closed the peer
			await("closed network", job.Runtimes[1].link.Closed)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			job, err := Launch("unix", 4, tc.nodes, 5)
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Dir(job.Runtimes[0].link.Addr())
			inEpoch, struck := make(chan struct{}), make(chan struct{})
			go func() {
				<-inEpoch
				tc.strike(job)
				close(struck)
			}()
			var panicked any
			start := time.Now()
			func() {
				defer job.Close()
				defer func() { panicked = recover() }()
				err = job.Run(func(*Runtime) func(*Context) error {
					return func(rc *Context) error {
						rc.Epoch(func() {
							switch rc.Rank() {
							case 0:
								close(inEpoch)
								<-struck
							case 3:
								if <-struck; tc.bug {
									panic("bug")
								}
							}
						})
						return nil
					}
				})
			}()
			if took := time.Since(start); tc.bug && took > time.Second {
				t.Errorf("the bug took %v to surface, want under 1s", took)
			}
			switch {
			case tc.wantPanic != "":
				if s, _ := panicked.(string); !strings.Contains(s, tc.wantPanic) {
					t.Errorf("Run panicked with %v (error %v), want a panic containing %q", panicked, err, tc.wantPanic)
				}
			case panicked != nil || err == nil || !strings.HasPrefix(err.Error(), tc.wantErr):
				t.Errorf("Run: error %v, panic %v; want an error starting %q", err, panicked, tc.wantErr)
			}
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Errorf("socket directory %s survives (stat: %v)", dir, err)
			}
		})
	}
}
