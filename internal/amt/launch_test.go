package amt

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
	victim := job.transports[1]
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
	dir := filepath.Dir(job.transports[0].Addr())
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
