package termination

import "fmt"

// Color is a process or token color in Safra's algorithm. White means
// "no basic message received since the last token visit"; black taints
// the current wave.
type Color int

const (
	White Color = iota
	Black
)

// String renders the color.
func (c Color) String() string {
	if c == White {
		return "white"
	}
	return "black"
}

// Token is the probe circulating around the ring.
type Token struct {
	// Count accumulates the message-balance counters of visited ranks.
	Count int
	// Color is black if any visited rank was black.
	Color Color
	// Wave numbers successive probe rounds, for diagnostics.
	Wave int
}

// Detector is the per-rank state of Safra's algorithm. It is not
// goroutine-safe: whoever runs the owning rank must drive it.
//
// Protocol, for rank p of n on a ring (token travels p → p−1 mod n,
// initiated by rank 0):
//
//   - Sending a basic message: OnSend (counter++).
//   - Receiving a basic message: OnReceive (counter--, the rank turns
//     black).
//   - When passive and holding the token, the rank calls TryHandOff:
//     rank 0 inspects the completed wave and either reports termination
//     or starts a new wave; other ranks accumulate their counter and
//     color into the token, whiten, and pass it on.
type Detector struct {
	rank, n  int
	counter  int
	color    Color
	hasToken bool
	token    Token
	done     bool
	// out is the token this rank last handed on: TryHandOff returns a
	// pointer to it, so a hop carries no value of its own.
	out Token
}

// New creates the detector for one rank; rank 0 starts holding the
// initial token.
func New(rank, n int) *Detector {
	if n < 1 || rank < 0 || rank >= n {
		panic(fmt.Sprintf("termination: bad rank %d of %d", rank, n))
	}
	d := &Detector{rank: rank, n: n}
	if rank == 0 {
		d.hasToken = true
		d.token = Token{Color: White, Wave: 1}
	}
	return d
}

// OnSend records a basic (epoch) message send.
func (d *Detector) OnSend() { d.counter++ }

// OnReceive records a basic (epoch) message receipt; the rank blackens.
func (d *Detector) OnReceive() {
	d.counter--
	d.color = Black
}

// OnDeliver records processing of a basic message under the ack-based
// (sender-credit) accounting variant: the receiving rank blackens but
// does not touch its counter — the matching decrement happens on the
// SENDER when the acknowledgment comes back (OnAck). With this pairing
// each counter equals the rank's number of unacknowledged sends, so
// counters never go negative and the wave rule (all white, summed count
// zero) detects quiescence even when the transport drops or duplicates
// messages, provided the runtime deduplicates deliveries and
// retransmits unacknowledged sends.
func (d *Detector) OnDeliver() { d.color = Black }

// OnAck records the first acknowledgment of one of this rank's basic
// sends under the ack-based accounting variant: the credit issued by
// OnSend is retired and the rank blackens (its counter changed since
// the token last passed). Duplicate acknowledgments must not be
// reported.
func (d *Detector) OnAck() {
	d.counter--
	d.color = Black
}

// OnToken records arrival of the probe token, copying it: t is the
// sender's outgoing token (TryHandOff), which the sender writes again at
// its next hand-off.
func (d *Detector) OnToken(t *Token) {
	if d.hasToken {
		panic("termination: duplicate token")
	}
	d.hasToken = true
	d.token = *t
}

// HoldsToken reports whether this rank currently holds the probe.
func (d *Detector) HoldsToken() bool { return d.hasToken }

// Wave returns the wave number of the most recent token this rank has
// seen — the per-epoch "token rounds to quiescence" statistic of the
// observability layer. It is 0 on ranks the first wave has not reached
// yet; on rank 0 it counts the waves launched, and at termination it is
// the total number of probe rounds the epoch needed.
func (d *Detector) Wave() int { return d.token.Wave }

// Terminated reports whether rank 0 has concluded global termination.
// Only rank 0 ever reports true; it must then announce termination to
// the other ranks out of band.
func (d *Detector) Terminated() bool { return d.done }

// TryHandOff is called by the scheduler whenever the rank is passive (no
// local work, no queued basic messages). If the rank holds the token it
// either (rank 0) finishes a wave — detecting termination or launching a
// new wave — or (other ranks) forwards the accumulated token. The
// returned next is the rank to send the token to when send is true.
//
// The token t points into the detector: the hop carries the pointer and
// the receiver's OnToken copies the value. That is safe because the
// rank's next hand-off writes it again only after the token has been
// all the way round the ring — through the receiver, which copied it on
// arrival — and a token is never dropped or duplicated; a socket
// transport encodes it before the receiver can see it.
func (d *Detector) TryHandOff() (t *Token, next int, send bool) {
	if !d.hasToken || d.done {
		return nil, 0, false
	}
	if d.rank == 0 {
		// A wave completes when the token returns to rank 0. The system
		// has terminated iff the wave was white everywhere, rank 0 is
		// white, and the global message balance is zero.
		if d.token.Wave > 1 && d.token.Color == White && d.color == White && d.token.Count+d.counter == 0 {
			d.done = true
			d.hasToken = false
			return nil, 0, false
		}
		// Start a new wave.
		d.color = White
		d.hasToken = false
		d.out = Token{Count: 0, Color: White, Wave: d.token.Wave + 1}
		return &d.out, d.prev(), true
	}
	// Accumulate and forward.
	d.out = d.token
	d.out.Count += d.counter
	if d.color == Black {
		d.out.Color = Black
	}
	d.color = White
	d.hasToken = false
	return &d.out, d.prev(), true
}

// prev returns the ring predecessor, the token's next hop.
func (d *Detector) prev() int { return (d.rank + d.n - 1) % d.n }

// Reset restores the detector for a new epoch.
func (d *Detector) Reset() {
	d.counter = 0
	d.color = White
	d.done = false
	d.hasToken = d.rank == 0
	if d.rank == 0 {
		d.token = Token{Color: White, Wave: 1}
	} else {
		// Drop the previous epoch's token so Wave() reports 0 until the
		// new epoch's first probe arrives, as documented.
		d.token = Token{}
	}
}
