package wire

import (
	"net"
	"strings"
	"testing"
	"time"

	"temperedlb/internal/comm"
)

// recvWithin pops rank's next message, waiting up to d for one.
func recvWithin(tr *Transport, rank int, d time.Duration) (m comm.Message, ok, timedOut bool) {
	if ok, timedOut = tr.WaitOwned(rank, d); !ok {
		return comm.Message{}, false, timedOut
	}
	m, ok = tr.Recv(rank)
	return m, ok, false
}

func testClusterEcho(t *testing.T, network string) {
	registerTestPayloads()
	const ranks, nodes = 6, 3
	c, err := NewCluster(network, ranks, nodes, 0x77)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer c.Close()

	// Every rank sends one payload-bearing message to every other rank;
	// every rank must receive ranks-1 messages, each intact.
	for _, tr := range c.Transports {
		lo, hi := tr.LocalRange()
		for from := lo; from < hi; from++ {
			for to := 0; to < ranks; to++ {
				if to == from {
					continue
				}
				tr.Send(comm.Message{From: from, To: to, Kind: 1, Handler: int32(from),
					Data: testPayload{A: int64(from*100 + to), B: []float64{float64(to)}, Flag: true}})
			}
		}
	}
	for _, tr := range c.Transports {
		lo, hi := tr.LocalRange()
		for r := lo; r < hi; r++ {
			seen := map[int]bool{}
			for len(seen) < ranks-1 {
				m, ok, timedOut := recvWithin(tr, r, 5*time.Second)
				if timedOut || !ok {
					t.Fatalf("%s: rank %d: got %d/%d messages then timed out (err=%v)", network, r, len(seen), ranks-1, tr.Err())
				}
				if m.To != r {
					t.Fatalf("rank %d received message for %d", r, m.To)
				}
				p, ok := m.Data.(testPayload)
				if !ok || p.A != int64(m.From*100+r) || len(p.B) != 1 || p.B[0] != float64(r) || !p.Flag {
					t.Fatalf("rank %d: corrupted payload from %d: %+v", r, m.From, m.Data)
				}
				if seen[m.From] {
					t.Fatalf("rank %d: duplicate from %d", r, m.From)
				}
				seen[m.From] = true
			}
		}
	}
	for _, tr := range c.Transports {
		st := tr.WireStats()
		if st.Peers != nodes-1 {
			t.Errorf("peers = %d, want %d", st.Peers, nodes-1)
		}
		if st.FramesOut == 0 || st.BytesOut == 0 || st.FramesIn == 0 || st.BytesIn == 0 {
			t.Errorf("wire stats not counting: %+v", st)
		}
	}
}

func TestClusterEchoUnix(t *testing.T) { testClusterEcho(t, "unix") }
func TestClusterEchoTCP(t *testing.T)  { testClusterEcho(t, "tcp") }

// TestCloseDrain is the no-message-loss contract: everything accepted
// by Send before Close — including fault-delayed deliveries — must
// reach the remote inbox, because the closing side flushes its
// outbound queues and delayed goroutines before its BYE, and the
// receiving side keeps injecting until that BYE arrives.
func TestCloseDrain(t *testing.T) {
	const ranks, nodes, burst = 2, 2, 2000
	c, err := NewCluster("unix", ranks, nodes, 0x88)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer c.Close()
	sender, receiver := c.Transports[0], c.Transports[1]

	// A fault plan that delays some traffic stresses the drain: Close
	// must wait out the sleeping delivery goroutines too.
	spec, err := comm.ParseFaultSpec("delay=2ms,delaymin=1ms,seed=9")
	if err != nil {
		t.Fatalf("fault spec: %v", err)
	}
	sender.SetFaultPlan(spec.Plan())

	for i := 0; i < burst; i++ {
		sender.Send(comm.Message{From: 0, To: 1, Kind: 1, Handler: int32(i)})
	}
	closed := make(chan struct{})
	go func() { sender.Close(); close(closed) }()

	got := make([]bool, burst)
	count := 0
	for count < burst {
		m, ok, timedOut := recvWithin(receiver, 1, 10*time.Second)
		if timedOut || !ok {
			t.Fatalf("lost messages on close: got %d/%d (sender err=%v)", count, burst, sender.Err())
		}
		if got[m.Handler] {
			t.Fatalf("duplicate message %d", m.Handler)
		}
		got[m.Handler] = true
		count++
	}
	// Receiver's own Close sends its BYE, releasing the sender's drain.
	receiver.Close()
	select {
	case <-closed:
	case <-time.After(15 * time.Second):
		t.Fatal("sender Close did not complete after receiver closed")
	}
	if err := sender.Err(); err != nil {
		t.Fatalf("sender failed during drain: %v", err)
	}
}

// TestVersionMismatch proves a peer speaking a different protocol
// version is refused at the first frame with a diagnosable error.
func TestVersionMismatch(t *testing.T) {
	tr, err := New(Config{Network: "tcp", Ranks: 2, Nodes: 2, Self: 0})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	defer tr.Close()

	conn, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	hello := appendHello(nil, helloBody{Ranks: 2, Nodes: 2, Node: 1, Lo: 1, Hi: 2})
	hello[4] = Version + 1 // corrupt the version byte
	if _, err := conn.Write(hello); err != nil {
		t.Fatalf("write: %v", err)
	}
	waitForErr(t, tr, "version mismatch")
}

// TestGeometryMismatch proves two jobs that disagree on -ranks/-nodes
// cannot silently interconnect.
func TestGeometryMismatch(t *testing.T) {
	tr, err := New(Config{Network: "tcp", Ranks: 4, Nodes: 2, Self: 0})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	defer tr.Close()

	conn, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.Write(appendHello(nil, helloBody{Ranks: 8, Nodes: 2, Node: 1, Lo: 4, Hi: 8}))
	waitForErr(t, tr, "geometry mismatch")
}

func waitForErr(t *testing.T, tr *Transport, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := tr.Err(); err != nil {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("transport failed with %v, want %q", err, want)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("transport never recorded the %q error", want)
}

// TestWriterQueueSoftCapFailsLoud is the regression test for the
// unbounded-writer-queue bug: a peer whose writer never drains (stalled
// process, dead TCP window) used to grow its queue silently until this
// process OOMed. Now crossing the soft cap records a fatal transport
// error, and the deepest queue observed is exported via
// WireStats.QueueHighWater. The peer is hand-built with no writeLoop —
// the deterministic stand-in for a fully stalled writer — so the test
// needs no timing assumptions.
func TestWriterQueueSoftCapFailsLoud(t *testing.T) {
	tr, err := New(Config{Network: "tcp", Ranks: 2, Nodes: 2, Self: 0, maxQueue: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer tr.Close()

	ours, theirs := net.Pipe()
	defer ours.Close()
	defer theirs.Close()
	p := &peer{t: tr, node: 1, conn: ours, done: make(chan struct{})}
	close(p.done) // no writeLoop: Close must not wait for one

	for i := 0; i < 8; i++ {
		p.enqueue(comm.Message{From: 0, To: 1})
		if err := tr.Err(); err != nil {
			t.Fatalf("enqueue %d within the cap failed the transport: %v", i+1, err)
		}
	}
	p.enqueue(comm.Message{From: 0, To: 1}) // 9th message crosses the cap of 8

	err = tr.Err()
	if err == nil {
		t.Fatal("queue overflow did not fail the transport")
	}
	if !strings.Contains(err.Error(), "soft cap (9 queued > 8)") || !strings.Contains(err.Error(), "node 1") {
		t.Errorf("overflow error does not name the cap and peer: %v", err)
	}
	if hw := tr.WireStats().QueueHighWater; hw != 9 {
		t.Errorf("QueueHighWater = %d, want 9", hw)
	}
}

// TestConnectTimeoutBoundsDialing: -timeout is the whole connect
// budget, dial retries included, so a peer that never starts listening
// fails Connect once ConnectTimeout has passed, not after a fixed dial
// budget of its own.
func TestConnectTimeoutBoundsDialing(t *testing.T) {
	tr, err := New(Config{Network: "tcp", Ranks: 2, Nodes: 2, Self: 0, ConnectTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer tr.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	nobody := ln.Addr().String()
	ln.Close()

	start := time.Now()
	if err := tr.Connect([]string{tr.Addr(), nobody}); err == nil {
		t.Fatal("Connect to a peer nobody listens for succeeded")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("Connect gave up after %v, want within 2s of a 500ms ConnectTimeout", took)
	}
}

// TestCloseRightAfterConnect: Close may follow Connect at once — bench/
// and the smoke targets build and tear down clusters back to back — so
// every reader a peer's handshake starts must be counted before Connect
// can return, or Close's wait for the readers races their registration
// (run under -race by `make race`).
func TestCloseRightAfterConnect(t *testing.T) {
	for i := 0; i < 10; i++ {
		c, err := NewCluster("unix", 8, 2, uint64(i+1))
		if err != nil {
			t.Fatalf("cluster %d: %v", i, err)
		}
		c.Close()
	}
}
