package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"temperedlb/internal/comm"
)

// SplitRanks partitions n ranks over m nodes into contiguous, near-even
// ranges (the first n%m nodes get one extra rank): node i hosts ranks
// [b[i], b[i+1]) of the m+1 bounds b it returns. Every process of a job
// derives the ranges from this function, so the node map needs only
// addresses.
func SplitRanks(n, m int) []int {
	if n < 1 || m < 1 || m > n {
		panic(fmt.Sprintf("wire: SplitRanks(%d, %d): need 1 <= nodes <= ranks", n, m))
	}
	b := make([]int, m+1)
	base, extra := n/m, n%m
	for i := range m {
		b[i+1] = b[i] + base
		if i < extra {
			b[i+1]++
		}
	}
	return b
}

// Config parameterizes one node's transport.
type Config struct {
	// Network is "tcp" or "unix".
	Network string
	// Ranks is the job's total rank count; Nodes the process count;
	// Self this process's node index. The local rank range is
	// node Self's range of SplitRanks(Ranks, Nodes).
	Ranks, Nodes, Self int
	// Listen is the address to listen on. Empty defaults to
	// "127.0.0.1:0" for tcp; it is required for unix.
	Listen string
	// JobID guards against cross-job connections: peers with a
	// different JobID are refused at handshake. Zero disables the check
	// only if both sides use zero.
	JobID uint64
	// ConnectTimeout bounds Connect as a whole (default 30s): dialing
	// every peer, with retries while peers have not started listening
	// yet, and waiting for every peer's inbound handshake share one
	// deadline. It also bounds each inbound connection's HELLO.
	ConnectTimeout time.Duration
	// Logf receives connection-lifecycle and failure lines; nil is
	// silent.
	Logf func(format string, args ...any)

	// maxQueue is the soft cap on any one peer's writer queue, in
	// messages; zero means defaultMaxQueue. Only tests lower it.
	maxQueue int
}

func (cfg *Config) setDefaults() error {
	switch cfg.Network {
	case "tcp":
		if cfg.Listen == "" {
			cfg.Listen = "127.0.0.1:0"
		}
	case "unix":
		if cfg.Listen == "" {
			return errors.New("wire: unix transport needs an explicit Listen socket path")
		}
	default:
		return fmt.Errorf("wire: unknown network %q (want tcp or unix)", cfg.Network)
	}
	if cfg.Ranks < 1 || cfg.Nodes < 1 || cfg.Nodes > cfg.Ranks {
		return fmt.Errorf("wire: bad geometry: %d ranks over %d nodes", cfg.Ranks, cfg.Nodes)
	}
	if cfg.Self < 0 || cfg.Self >= cfg.Nodes {
		return fmt.Errorf("wire: self node %d outside [0,%d)", cfg.Self, cfg.Nodes)
	}
	if cfg.ConnectTimeout <= 0 {
		cfg.ConnectTimeout = 30 * time.Second
	}
	if cfg.maxQueue == 0 {
		cfg.maxQueue = defaultMaxQueue
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return nil
}

// Transport is one node of a socket job: it hosts a contiguous slice of
// the job's ranks in this process and carries everything else over TCP
// or Unix-domain sockets. It embeds a partial comm.Network, so local
// traffic, sequence stamping, accounting and fault injection are
// byte-for-byte the in-memory implementation; only delivery to remote
// ranks differs.
//
// Lifecycle: New (listen) → Connect (full mesh handshake) → hand to
// amt.New via WithTransport → Close (graceful drain). Each ordered
// peer pair uses two unidirectional connections — the dialer writes,
// the accepter reads — so no tie-breaking is needed and per-connection
// byte order gives per-sender FIFO for free.
type Transport struct {
	*comm.Network
	cfg    Config
	lo, hi int

	ln       net.Listener
	addr     string
	addrs    []string // set by Connect, indexed by node id
	rankNode []int    // global rank → node id

	peers []*peer // indexed by node id; nil at Self and before Connect

	mu       sync.Mutex
	inbound  map[int]net.Conn // node id → accepted (read) connection
	accepted []net.Conn       // every accepted conn, for force-close
	// inWake is Connect's wake token: a handshake, failure or shutdown drops one.
	inWake chan struct{}

	readerWG sync.WaitGroup
	closing  atomic.Bool
	closed   atomic.Bool
	failErr  atomic.Pointer[error]

	framesOut, bytesOut atomic.Int64
	framesIn, bytesIn   atomic.Int64
	redials             atomic.Int64
	connectedPeers      atomic.Int64
	rttMax              atomic.Int64 // nanoseconds, max peer dial round trip
	queueHighWater      atomic.Int64 // deepest writer queue seen, any peer
}

// defaultMaxQueue is the soft cap on any one peer's writer queue, in
// messages. A peer that stops draining (stalled process, dead TCP window)
// would otherwise grow its queue without bound until this process OOMs;
// crossing the cap instead fails the transport loudly. It is deep enough
// that a healthy peer is never tripped by a send burst (the protocol's
// per-epoch traffic is orders of magnitude smaller), shallow enough to
// fail long before queued messages threaten process memory.
const defaultMaxQueue = 1 << 17

// drainTimeout bounds the graceful close-drain: how long Close waits for
// outbound queues to flush and for every peer's BYE before force-closing
// connections.
const drainTimeout = 10 * time.Second

// peer owns the outbound connection to one remote node: an unbounded
// queue drained by a writer goroutine, so Send never blocks on the
// socket. The writer flushes whenever it catches up with the queue and
// ends the stream with a BYE frame once drain begins. Whoever changes queue
// or bye drops a token on wake, on which the writer sleeps when idle.
type peer struct {
	t    *Transport
	node int

	mu    sync.Mutex
	queue []comm.Message
	bye   bool
	wake  chan struct{}

	conn net.Conn
	done chan struct{}
}

// New validates the configuration and starts listening; remote ranks
// are not reachable until Connect. The bound address (useful with
// tcp port 0) is available via Addr immediately.
func New(cfg Config) (*Transport, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	bounds := SplitRanks(cfg.Ranks, cfg.Nodes)
	lo, hi := bounds[cfg.Self], bounds[cfg.Self+1]
	ln, err := net.Listen(cfg.Network, cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s %s: %w (address already in use? stale unix socket?)", cfg.Network, cfg.Listen, err)
	}
	t := &Transport{
		cfg:     cfg,
		lo:      lo,
		hi:      hi,
		ln:      ln,
		addr:    ln.Addr().String(),
		inbound: map[int]net.Conn{},
		inWake:  make(chan struct{}, 1),
		peers:   make([]*peer, cfg.Nodes),
	}
	t.Network = comm.NewPartialNetwork(cfg.Ranks, lo, hi, t.forwardRemote)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the listener's bound address.
func (t *Transport) Addr() string { return t.addr }

// Err returns the first fatal transport error (lost peer, handshake
// refusal, decode failure), or nil. A non-nil Err means the transport
// shut itself down; runs in flight will observe a closed network.
func (t *Transport) Err() error {
	if p := t.failErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Connect installs the job's node map — every node's listen address,
// indexed by node — and establishes the full mesh: it dials every other
// node (with backoff — peers may start in any order), sends the
// handshake, and waits until every peer has dialed us back, all within
// ConnectTimeout. After Connect returns nil the transport is ready for Run.
func (t *Transport) Connect(addrs []string) error {
	deadline := time.Now().Add(t.cfg.ConnectTimeout)
	if len(addrs) != t.cfg.Nodes {
		return fmt.Errorf("wire: Connect got %d addresses, want %d", len(addrs), t.cfg.Nodes)
	}
	for i, addr := range addrs {
		if addr == "" {
			return fmt.Errorf("wire: node %d has no address", i)
		}
	}
	t.addrs = slices.Clone(addrs)
	t.rankNode = make([]int, t.cfg.Ranks)
	bounds := SplitRanks(t.cfg.Ranks, t.cfg.Nodes)
	for node := range t.cfg.Nodes {
		for r := bounds[node]; r < bounds[node+1]; r++ {
			t.rankNode[r] = node
		}
	}

	// Dial every peer concurrently; each failure is fatal for Connect.
	errs := make([]error, t.cfg.Nodes)
	var wg sync.WaitGroup
	for i := range addrs {
		if i == t.cfg.Self {
			continue
		}
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			errs[node] = t.dialPeer(node, deadline)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Close()
			return err
		}
	}

	// Wait for every peer's inbound handshake. A stopped timer stays in
	// the runtime's timer heap, and what it references reachable, until
	// the runtime next sweeps it: this one references only its channel.
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	expired := false
	for missing := t.missingPeers(); len(missing) > 0; missing = t.missingPeers() {
		if err := t.Err(); err != nil {
			t.Close()
			return err
		}
		if expired {
			t.Close()
			return fmt.Errorf("wire: node %d: peer timeout: no handshake from nodes %v within %v (peer not started? wrong address in map?)", t.cfg.Self, missing, t.cfg.ConnectTimeout)
		}
		select {
		case <-t.inWake:
		case <-timer.C:
			expired = true
		}
	}
	t.cfg.Logf("wire: node %d connected: %d peers, ranks [%d,%d) local", t.cfg.Self, t.cfg.Nodes-1, t.lo, t.hi)
	return nil
}

// missingPeers lists node ids that have not handshaken yet.
func (t *Transport) missingPeers() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var missing []int
	for i := 0; i < t.cfg.Nodes; i++ {
		if i == t.cfg.Self {
			continue
		}
		if _, ok := t.inbound[i]; !ok {
			missing = append(missing, i)
		}
	}
	return missing
}

// dialPeer establishes the outbound (write) connection to one node,
// retrying with capped exponential backoff until deadline: job
// processes start in arbitrary order, so early connection refusals are
// expected, not errors.
func (t *Transport) dialPeer(node int, deadline time.Time) error {
	addr := t.addrs[node]
	var (
		conn    net.Conn
		err     error
		backoff = 25 * time.Millisecond
	)
	start := time.Now()
	dialer := net.Dialer{Deadline: deadline}
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			t.redials.Add(1)
		}
		attemptStart := time.Now()
		conn, err = dialer.Dial(t.cfg.Network, addr)
		if err == nil {
			if rtt := time.Since(attemptStart); rtt > time.Duration(t.rttMax.Load()) {
				t.rttMax.Store(int64(rtt))
			}
			break
		}
		if t.closing.Load() {
			return fmt.Errorf("wire: dial node %d: transport closed", node)
		}
		if !time.Now().Add(backoff).Before(deadline) {
			return fmt.Errorf("wire: dial node %d at %s: %w (gave up after %v)", node, addr, err, time.Since(start))
		}
		time.Sleep(backoff)
		if backoff < time.Second {
			backoff *= 2
		}
	}
	hello := appendHello(nil, helloBody{
		JobID: t.cfg.JobID, Ranks: t.cfg.Ranks, Nodes: t.cfg.Nodes,
		Node: t.cfg.Self, Lo: t.lo, Hi: t.hi,
	})
	if _, err := conn.Write(hello); err != nil {
		conn.Close()
		return fmt.Errorf("wire: handshake to node %d: %w", node, err)
	}
	p := &peer{t: t, node: node, conn: conn, wake: make(chan struct{}, 1), done: make(chan struct{})}
	t.mu.Lock() // a failure's shutdown may already be reading the table
	t.peers[node] = p
	t.mu.Unlock()
	t.connectedPeers.Add(1)
	go p.writeLoop()
	return nil
}

// acceptLoop accepts inbound (read) connections for the transport's
// lifetime. Each must open with a valid HELLO before any message is
// honored.
func (t *Transport) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		t.accepted = append(t.accepted, conn)
		t.mu.Unlock()
		go t.handshakeInbound(conn)
	}
}

// handshakeInbound validates a new inbound connection's HELLO and, on
// success, starts its read loop. Any handshake failure — version or
// geometry mismatch, garbage, a stray client — is fatal for the whole
// transport: the listener is job-private (loopback or a unix socket),
// so an invalid connection means the job is miswired, and failing
// loudly beats proceeding half-connected.
func (t *Transport) handshakeInbound(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(t.cfg.ConnectTimeout))
	br := bufio.NewReader(conn)
	hello := frameReader{br: br}
	ftype, body, err := hello.next()
	if err != nil {
		t.fail(fmt.Errorf("wire: inbound handshake from %v: %w", conn.RemoteAddr(), err))
		conn.Close()
		return
	}
	if ftype != frameHello {
		t.fail(fmt.Errorf("wire: inbound connection from %v opened with frame type %d, want HELLO", conn.RemoteAddr(), ftype))
		conn.Close()
		return
	}
	h, err := decodeHello(body)
	if err != nil {
		t.fail(fmt.Errorf("wire: inbound handshake from %v: %w", conn.RemoteAddr(), err))
		conn.Close()
		return
	}
	if err := t.checkHello(h); err != nil {
		t.fail(err)
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	t.mu.Lock()
	if _, dup := t.inbound[h.Node]; dup {
		t.mu.Unlock()
		t.fail(fmt.Errorf("wire: node %d handshook twice (duplicate -node index in the job?)", h.Node))
		conn.Close()
		return
	}
	t.inbound[h.Node] = conn
	// Count the reader before Connect can see the peer and return: from
	// then on Close may run, and it waits for the readers.
	t.readerWG.Add(1)
	t.mu.Unlock()
	drop(t.inWake)
	go t.readLoop(h.Node, conn, br)
}

// checkHello validates a peer's announced geometry against ours.
func (t *Transport) checkHello(h helloBody) error {
	if h.JobID != t.cfg.JobID {
		return fmt.Errorf("wire: job id mismatch: peer %#x, ours %#x (two jobs sharing an address?)", h.JobID, t.cfg.JobID)
	}
	if h.Ranks != t.cfg.Ranks || h.Nodes != t.cfg.Nodes {
		return fmt.Errorf("wire: geometry mismatch: peer says %d ranks / %d nodes, ours %d / %d", h.Ranks, h.Nodes, t.cfg.Ranks, t.cfg.Nodes)
	}
	if h.Node < 0 || h.Node >= t.cfg.Nodes || h.Node == t.cfg.Self {
		return fmt.Errorf("wire: peer announces node id %d (ours is %d of %d)", h.Node, t.cfg.Self, t.cfg.Nodes)
	}
	bounds := SplitRanks(t.cfg.Ranks, t.cfg.Nodes)
	if lo, hi := bounds[h.Node], bounds[h.Node+1]; h.Lo != lo || h.Hi != hi {
		return fmt.Errorf("wire: node %d announces ranks [%d,%d), want [%d,%d)", h.Node, h.Lo, h.Hi, lo, hi)
	}
	return nil
}

// readLoop decodes message frames from one peer until its BYE (orderly
// shutdown), a transport-wide close, or an error (fatal: a lost peer
// wedges the collective protocol, so fail fast and loudly rather than
// hang the epoch). Its frameReader is the connection's one frame buffer
// and one decoder: a frame costs no allocation of its own, only what its
// payload decodes to.
func (t *Transport) readLoop(node int, conn net.Conn, br *bufio.Reader) {
	defer t.readerWG.Done()
	r := &frameReader{br: br}
	for {
		ftype, body, err := r.next()
		if err != nil {
			if t.closing.Load() {
				return
			}
			t.fail(fmt.Errorf("wire: connection from node %d lost before BYE: %w", node, err))
			return
		}
		switch ftype {
		case frameBye:
			return
		case frameMessage:
			m, err := r.message(body, t.cfg.Ranks)
			if err != nil {
				t.fail(fmt.Errorf("wire: bad frame from node %d: %w", node, err))
				return
			}
			if m.To < t.lo || m.To >= t.hi {
				t.fail(fmt.Errorf("wire: node %d misrouted a message for rank %d to node %d (hosts [%d,%d))", node, m.To, t.cfg.Self, t.lo, t.hi))
				return
			}
			t.framesIn.Add(1)
			t.bytesIn.Add(int64(len(body)) + 4 + frameHeaderLen)
			t.Network.Inject(m)
		default:
			t.fail(fmt.Errorf("wire: unknown frame type %d from node %d", ftype, node))
			return
		}
	}
}

// forwardRemote is the partial network's uplink: it runs on the
// sending rank's goroutine (or a delayed-delivery goroutine) after
// stamping, accounting and fault dice, and only enqueues — the per-peer
// writer goroutine owns the socket.
func (t *Transport) forwardRemote(m comm.Message) {
	p := t.peers[t.rankNode[m.To]]
	if p == nil {
		panic(fmt.Sprintf("wire: send to rank %d before Connect established node %d", m.To, t.rankNode[m.To]))
	}
	p.enqueue(m)
}

func (p *peer) enqueue(m comm.Message) {
	p.mu.Lock()
	p.queue = append(p.queue, m)
	depth := int64(len(p.queue))
	p.mu.Unlock()
	drop(p.wake)
	for {
		hw := p.t.queueHighWater.Load()
		if depth <= hw || p.t.queueHighWater.CompareAndSwap(hw, depth) {
			break
		}
	}
	if cap := p.t.cfg.maxQueue; depth > int64(cap) {
		p.t.fail(fmt.Errorf("wire: writer queue to node %d overflowed the soft cap (%d queued > %d): peer is not draining", p.node, depth, cap))
	}
}

// beginBye asks the writer to flush everything queued and end the
// stream; it returns immediately.
func (p *peer) beginBye() {
	p.mu.Lock()
	p.bye = true
	p.mu.Unlock()
	drop(p.wake)
}

// drop leaves a wake token on c unless one is already there.
func drop(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// writeLoop drains the queue into the socket, flushing whenever it
// catches up, and finishes with BYE + flush + write-side close once
// drain is requested and the queue is empty. Socket writes happen
// outside the queue lock.
func (p *peer) writeLoop() {
	defer close(p.done)
	bw := bufio.NewWriter(p.conn)
	var batch []comm.Message
	var buf []byte
	dead := false
	for {
		p.mu.Lock()
		batch = append(batch[:0], p.queue...)
		clear(p.queue)
		p.queue = p.queue[:0]
		finish := p.bye
		p.mu.Unlock()
		if len(batch) == 0 && !finish {
			<-p.wake
			continue
		}

		if !dead {
			for i := range batch {
				var err error
				if buf, err = p.encode(buf[:0], batch[i]); err != nil {
					p.t.fail(err)
					continue
				}
				if _, err := bw.Write(buf); err != nil {
					p.t.fail(fmt.Errorf("wire: write to node %d: %w", p.node, err))
					dead = true
					break
				}
				p.t.framesOut.Add(1)
				p.t.bytesOut.Add(int64(len(buf)))
			}
		}
		clear(batch)
		if finish {
			if !dead {
				if _, err := bw.Write(appendBye(nil)); err == nil {
					bw.Flush()
				}
				type closeWriter interface{ CloseWrite() error }
				if cw, ok := p.conn.(closeWriter); ok {
					cw.CloseWrite()
				}
			}
			return
		}
		if !dead {
			if err := bw.Flush(); err != nil {
				p.t.fail(fmt.Errorf("wire: flush to node %d: %w", p.node, err))
				dead = true
			}
		}
	}
}

// encode appends m's frame to buf. A payload the codec cannot encode — a
// type with no codec, sent directly or inside an object envelope — fails
// the transport with an error naming the sending rank, the destination
// and the type, instead of a panic on the writer's goroutine, which no
// rank's containment would catch.
func (p *peer) encode(buf []byte, m comm.Message) (frame []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("wire: rank %d's message to rank %d on node %d: cannot encode its %T payload: %v", m.From, m.To, p.node, m.Data, r)
		}
	}()
	return AppendMessage(buf, m), nil
}

// fail records the first fatal error and tears the transport down
// asynchronously, so every rank blocked in a receive observes a closed
// network (a loud panic) instead of hanging forever on a dead peer.
func (t *Transport) fail(err error) {
	if t.closing.Load() {
		return
	}
	if !t.failErr.CompareAndSwap(nil, &err) {
		return
	}
	t.cfg.Logf("wire: fatal: %v", err)
	drop(t.inWake)
	go t.Close()
}

// Close drains and shuts down. The sequence guarantees the close-drain
// contract — nothing accepted by Send before Close is lost on our
// account:
//
//  1. close the embedded network: local Sends now panic, in-flight
//     delayed deliveries (including remote-bound ones) are waited for,
//     local inboxes wake their receivers;
//  2. ask every peer writer to flush its queue, append BYE and close
//     the write side; wait for them (bounded by drainTimeout via write
//     deadlines);
//  3. stop accepting, then wait — again bounded by drainTimeout — for
//     every peer's BYE so late inbound messages (acks, duplicates) are
//     still injected while our process is alive;
//  4. force-close whatever is left.
//
// Close is idempotent and safe to call from any goroutine.
func (t *Transport) Close() { t.shutdown(drainTimeout) }

// Abort is Close for a node whose share of the job has failed while its
// peers may be parked on its ranks: it hangs up without the BYE, so every
// peer's transport fails with a lost connection instead of recording an
// orderly leave and waiting forever. Nothing is drained or waited for.
func (t *Transport) Abort() { t.shutdown(0) }

// shutdown is Close with the given bound on its drains; zero aborts.
func (t *Transport) shutdown(drain time.Duration) {
	if !t.closed.CompareAndSwap(false, true) {
		return
	}
	t.closing.Store(true)
	t.Network.Close()

	// One timer bounds both waits below and is stopped on return: a
	// time.After per wait would sit in the runtime's timer heap for the
	// whole drainTimeout after every Close, however fast the drain was.
	deadline := time.Now().Add(drain)
	expired := make(chan struct{})
	timer := time.AfterFunc(drain, func() { close(expired) })
	defer timer.Stop()
	t.mu.Lock()
	peers := slices.Clone(t.peers)
	t.mu.Unlock()
	for _, p := range peers {
		if p == nil {
			continue
		}
		if drain == 0 {
			p.conn.Close() // before the writer can be asked for a BYE
		}
		p.conn.SetWriteDeadline(deadline)
		p.beginBye()
	}
	for _, p := range peers {
		if p == nil {
			continue
		}
		select {
		case <-p.done:
		case <-expired:
			p.conn.Close() // writer is stuck; abort it
			<-p.done
		}
	}

	t.ln.Close()
	drop(t.inWake)

	readersDone := make(chan struct{})
	go func() {
		t.readerWG.Wait()
		close(readersDone)
	}()
	select {
	case <-readersDone:
	case <-expired:
		t.cfg.Logf("wire: node %d: drain timeout; force-closing inbound connections", t.cfg.Self)
	}

	t.mu.Lock()
	conns := append([]net.Conn(nil), t.accepted...)
	t.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	for _, p := range peers {
		if p != nil {
			p.conn.Close()
		}
	}
	<-readersDone
}

// WireStats snapshots the transport's frame, byte and connection
// counters.
func (t *Transport) WireStats() comm.WireStats {
	return comm.WireStats{
		FramesOut:      t.framesOut.Load(),
		BytesOut:       t.bytesOut.Load(),
		FramesIn:       t.framesIn.Load(),
		BytesIn:        t.bytesIn.Load(),
		Peers:          t.connectedPeers.Load(),
		Redials:        t.redials.Load(),
		QueueHighWater: t.queueHighWater.Load(),
	}
}

// RTTHint is the slowest peer's connection setup time, the transport's
// best cheap estimate of one round trip; the runtime paces its first
// retransmission to it.
func (t *Transport) RTTHint() time.Duration {
	return time.Duration(t.rttMax.Load())
}

// frameReader is the read side of one connection: the length word, one
// frame buffer kept at its high-water size and one decoder, reset for
// every frame. A body it returns is valid until the next call; a decoded
// payload owns its memory, since every Decoder primitive copies out of
// the buffer.
type frameReader struct {
	br  *bufio.Reader
	hdr [4]byte
	buf []byte
	dec Decoder
}

// next reads one length-prefixed frame, growing the buffer only when the
// frame does not fit. It validates the length bounds and the protocol
// version before returning the frame type and body.
func (r *frameReader) next() (ftype byte, body []byte, err error) {
	if _, err := io.ReadFull(r.br, r.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(r.hdr[:]))
	if n < frameHeaderLen {
		return 0, nil, fmt.Errorf("frame length %d shorter than header", n)
	}
	if n > MaxFrameSize {
		return 0, nil, fmt.Errorf("frame length %d exceeds limit %d", n, MaxFrameSize)
	}
	if cap(r.buf) < n {
		r.buf = make([]byte, n)
	}
	frame := r.buf[:n]
	if _, err := io.ReadFull(r.br, frame); err != nil {
		return 0, nil, fmt.Errorf("truncated frame: %w", err)
	}
	if v := frame[0]; v != Version {
		return 0, nil, fmt.Errorf("protocol version mismatch: peer speaks v%d, this binary v%d (mixed builds in one job?)", v, Version)
	}
	return frame[1], frame[frameHeaderLen:], nil
}

// message decodes a message frame's body with the connection's decoder.
func (r *frameReader) message(body []byte, totalRanks int) (comm.Message, error) {
	return decodeMessage(&r.dec, body, totalRanks)
}
