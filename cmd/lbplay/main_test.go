package main

import (
	"errors"
	"net"
	"strings"
	"testing"

	"temperedlb/internal/comm/wire"
)

// TestJobErrorNamesTheFailedTransport: a stray client that opens a node's
// socket with garbage fails that transport; the run's verdict must say so
// ahead of any rank's error, and be nil for a clean job.
func TestJobErrorNamesTheFailedTransport(t *testing.T) {
	cluster, err := wire.NewCluster("unix", 4, 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := jobError("unix", cluster, make([]error, 4)); err != nil {
		t.Fatalf("clean job: %v", err)
	}
	rankErr := []error{nil, nil, errors.New("boom"), nil}
	if err := jobError("memory", nil, rankErr); err == nil || err.Error() != "rank 2: boom" {
		t.Fatalf("rank error: got %v", err)
	}

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
	err = jobError("unix", cluster, rankErr)
	if err == nil || !strings.HasPrefix(err.Error(), "unix transport failed: ") {
		t.Fatalf("failed transport: got %v", err)
	}
}
