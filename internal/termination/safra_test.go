package termination

import (
	"math/rand"
	"testing"
)

// ringSim simulates n ranks exchanging basic messages plus the Safra
// token over a serialized message pool, validating the detector against
// ground truth (no undelivered basic messages at detection time).
type ringSim struct {
	t        *testing.T
	n        int
	det      []*Detector
	inFlight [][]int // basic messages pending per destination (payload = hops budget)
	tokenAt  int     // rank holding/destined for the token, -1 when none
	tokenIn  *Token  // token in flight toward tokenAt
	rng      *rand.Rand
}

func newRingSim(t *testing.T, n int, seed int64) *ringSim {
	s := &ringSim{t: t, n: n, rng: rand.New(rand.NewSource(seed)), tokenAt: -1}
	s.det = make([]*Detector, n)
	s.inFlight = make([][]int, n)
	for i := range s.det {
		s.det[i] = New(i, n)
	}
	return s
}

func (s *ringSim) send(from, to, hops int) {
	s.det[from].OnSend()
	s.inFlight[to] = append(s.inFlight[to], hops)
}

func (s *ringSim) pendingTotal() int {
	total := 0
	for _, q := range s.inFlight {
		total += len(q)
	}
	return total
}

// step delivers one random pending basic message (possibly triggering a
// forward) or moves the token. Returns false when terminated.
func (s *ringSim) step() bool {
	// Deliver a random basic message if any (messages preempt token
	// handling, modeling an asynchronous schedule).
	if total := s.pendingTotal(); total > 0 && s.rng.Intn(3) != 0 {
		pick := s.rng.Intn(total)
		for to := range s.inFlight {
			if pick < len(s.inFlight[to]) {
				hops := s.inFlight[to][pick]
				s.inFlight[to] = append(s.inFlight[to][:pick], s.inFlight[to][pick+1:]...)
				s.det[to].OnReceive()
				if hops > 0 { // activity spawns more messages
					s.send(to, s.rng.Intn(s.n), hops-1)
				}
				return true
			}
			pick -= len(s.inFlight[to])
		}
	}
	// Token hop: deliver in-flight token, then let a passive holder act.
	if s.tokenIn != nil {
		s.det[s.tokenAt].OnToken(s.tokenIn)
		s.tokenIn = nil
	}
	for r := 0; r < s.n; r++ {
		// A rank is passive here iff it has no pending deliveries.
		if s.det[r].HoldsToken() && len(s.inFlight[r]) == 0 {
			tok, next, send := s.det[r].TryHandOff()
			if send {
				s.tokenAt = next
				s.tokenIn = tok
				return true
			}
			if s.det[r].Terminated() {
				if got := s.pendingTotal(); got != 0 {
					s.t.Fatalf("termination declared with %d undelivered messages", got)
				}
				return false
			}
		}
	}
	return true
}

func TestSafraDetectsTermination(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 17} {
		s := newRingSim(t, n, int64(n))
		// Seed some cascading traffic.
		for i := 0; i < n*3; i++ {
			s.send(s.rng.Intn(n), s.rng.Intn(n), 4)
		}
		steps := 0
		for s.step() {
			steps++
			if steps > 1_000_000 {
				t.Fatalf("n=%d: no termination after %d steps", n, steps)
			}
		}
	}
}

func TestSafraQuietSystemTerminatesQuickly(t *testing.T) {
	s := newRingSim(t, 5, 1)
	steps := 0
	for s.step() {
		steps++
		if steps > 10_000 {
			t.Fatal("quiet system did not terminate")
		}
	}
	// Two waves around a 5-ring plus bookkeeping.
	if steps > 50 {
		t.Errorf("quiet termination took %d steps", steps)
	}
}

func TestSafraNeverEarly(t *testing.T) {
	// Heavy cascading traffic: detection must always wait out the last
	// message (checked inside step()).
	for seed := int64(0); seed < 20; seed++ {
		s := newRingSim(t, 6, seed)
		for i := 0; i < 30; i++ {
			s.send(s.rng.Intn(6), s.rng.Intn(6), 6)
		}
		steps := 0
		for s.step() {
			steps++
			if steps > 1_000_000 {
				t.Fatal("no termination")
			}
		}
	}
}

func TestSafraSingleRank(t *testing.T) {
	d := New(0, 1)
	if !d.HoldsToken() {
		t.Fatal("rank 0 must start with the token")
	}
	// First hand-off starts wave 2 and... with n=1 the next hop is rank 0
	// itself, so the detector should conclude on the evaluation path.
	steps := 0
	for !d.Terminated() {
		tok, next, send := d.TryHandOff()
		if send {
			if next != 0 {
				t.Fatalf("n=1 token sent to %d", next)
			}
			d.OnToken(tok)
		}
		if steps++; steps > 10 {
			t.Fatal("single rank did not terminate")
		}
	}
}

func TestSafraReset(t *testing.T) {
	d := New(0, 3)
	d.OnSend()
	d.OnReceive()
	d.Reset()
	if d.Terminated() {
		t.Error("terminated after reset")
	}
	if !d.HoldsToken() {
		t.Error("rank 0 must hold token after reset")
	}
	d1 := New(1, 3)
	d1.Reset()
	if d1.HoldsToken() {
		t.Error("rank 1 must not hold token after reset")
	}
}

// ackMsg is one copy of a basic message on the lossy wire of ackRingSim.
type ackMsg struct {
	id, from, to, hops int
}

// ackRingSim validates the ack-based (sender-credit) accounting variant
// — OnSend/OnDeliver/OnAck — against ground truth over a channel that
// drops and duplicates basic messages. Acknowledgments are reliable
// (the runtime exempts control kinds from fault injection) and the
// receiver deduplicates, mirroring internal/amt's reliability layer.
type ackRingSim struct {
	t       *testing.T
	n       int
	det     []*Detector
	rng     *rand.Rand
	nextID  int
	flight  []ackMsg       // undelivered basic-message copies
	acks    []ackMsg       // acknowledgments in flight (to = original sender)
	pending map[int]ackMsg // unacked sends by id
	seen    map[int]bool   // delivered ids (receiver dedup)
	tokenAt int
	tokenIn *Token
}

func newAckRingSim(t *testing.T, n int, seed int64) *ackRingSim {
	s := &ackRingSim{t: t, n: n, rng: rand.New(rand.NewSource(seed)),
		pending: make(map[int]ackMsg), seen: make(map[int]bool), tokenAt: -1}
	s.det = make([]*Detector, n)
	for i := range s.det {
		s.det[i] = New(i, n)
	}
	return s
}

func (s *ackRingSim) send(from, to, hops int) {
	s.nextID++
	m := ackMsg{id: s.nextID, from: from, to: to, hops: hops}
	s.det[from].OnSend()
	s.pending[m.id] = m
	s.transmit(m)
}

// transmit puts 0 (drop), 1, or 2 (duplicate) copies on the wire.
func (s *ackRingSim) transmit(m ackMsg) {
	if s.rng.Float64() < 0.3 { // dropped
		return
	}
	s.flight = append(s.flight, m)
	if s.rng.Float64() < 0.3 { // duplicated
		s.flight = append(s.flight, m)
	}
}

// passive reports whether rank r has no queued deliveries.
func (s *ackRingSim) passive(r int) bool {
	for _, m := range s.flight {
		if m.to == r {
			return false
		}
	}
	for _, a := range s.acks {
		if a.to == r {
			return false
		}
	}
	return true
}

func (s *ackRingSim) step() bool {
	switch pick := s.rng.Intn(4); {
	case pick == 0 && len(s.flight) > 0: // deliver a basic-message copy
		i := s.rng.Intn(len(s.flight))
		m := s.flight[i]
		s.flight = append(s.flight[:i], s.flight[i+1:]...)
		if !s.seen[m.id] {
			s.seen[m.id] = true
			s.det[m.to].OnDeliver()
			if m.hops > 0 {
				s.send(m.to, s.rng.Intn(s.n), m.hops-1)
			}
		}
		// Every delivered copy is (re-)acknowledged, reliably.
		s.acks = append(s.acks, ackMsg{id: m.id, to: m.from})
		return true
	case pick == 1 && len(s.acks) > 0: // deliver an acknowledgment
		i := s.rng.Intn(len(s.acks))
		a := s.acks[i]
		s.acks = append(s.acks[:i], s.acks[i+1:]...)
		if p, ok := s.pending[a.id]; ok { // first ack retires the credit
			delete(s.pending, a.id)
			s.det[p.from].OnAck()
		}
		return true
	case pick == 2 && len(s.pending) > 0 && s.rng.Intn(4) == 0:
		// A sender times out and retransmits an unacked message.
		for _, p := range s.pending {
			s.transmit(p)
			break
		}
		return true
	}
	// Token hop: deliver the in-flight token, then let a passive holder
	// act.
	if s.tokenIn != nil {
		s.det[s.tokenAt].OnToken(s.tokenIn)
		s.tokenIn = nil
	}
	for r := 0; r < s.n; r++ {
		if s.det[r].HoldsToken() && s.passive(r) {
			tok, next, send := s.det[r].TryHandOff()
			if send {
				s.tokenAt = next
				s.tokenIn = tok
				return true
			}
			if s.det[r].Terminated() {
				if len(s.pending) != 0 {
					s.t.Fatalf("termination declared with %d unacked messages", len(s.pending))
				}
				return false
			}
		}
	}
	return true
}

func TestSafraAckVariantUnderDropsAndDups(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		s := newAckRingSim(t, 6, seed)
		for i := 0; i < 24; i++ {
			s.send(s.rng.Intn(6), s.rng.Intn(6), 5)
		}
		steps := 0
		for s.step() {
			steps++
			if steps > 5_000_000 {
				t.Fatalf("seed %d: no termination after %d steps", seed, steps)
			}
		}
	}
}

func TestSafraResetClearsWave(t *testing.T) {
	// Regression: Reset used to leave the previous epoch's token on
	// non-zero ranks, so Wave() reported the old wave count instead of
	// the documented 0 until the first probe of the new epoch arrived.
	d := New(2, 4)
	d.OnToken(&Token{Color: White, Wave: 7})
	if _, _, send := d.TryHandOff(); !send {
		t.Fatal("holder must forward the token")
	}
	d.Reset()
	if got := d.Wave(); got != 0 {
		t.Fatalf("Wave() after Reset on rank 2 = %d, want 0", got)
	}
	// Rank 0 restarts with its fresh wave-1 token.
	d0 := New(0, 4)
	if _, _, send := d0.TryHandOff(); !send { // launches wave 2
		t.Fatal("rank 0 must launch a wave")
	}
	d0.Reset()
	if got := d0.Wave(); got != 1 {
		t.Fatalf("Wave() after Reset on rank 0 = %d, want 1", got)
	}
}

func TestSafraDuplicateTokenPanics(t *testing.T) {
	d := New(1, 3)
	d.OnToken(&Token{})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate token")
		}
	}()
	d.OnToken(&Token{})
}

func TestSafraBadRankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(3, 3)
}

func TestColorString(t *testing.T) {
	if White.String() != "white" || Black.String() != "black" {
		t.Error("color names wrong")
	}
}
