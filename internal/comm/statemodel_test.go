package comm

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// The interleaving check runs the real inbox — its transitions, its
// loops and the order of its steps — under a scheduler that lets one actor
// take one step at a time: a load or CAS of the state word, a lock of the
// queue's mutex, a token drop or take (see scheduler), and the choices an
// actor makes. A depth-first search tries every enabled
// step in every state it reaches, and skips a state it has seen. Actors are
// goroutines parked between steps, so a state is reached by replaying its
// path from a fresh inbox; what identifies it is everything visible plus,
// per actor, the steps of its current call with what each one saw, which
// is all its code can depend on.
//
// A search may also give each sender one message of epoch 1 — sent last,
// after its epoch-0 ones — that the owner's inbox holds until the owner
// enters epoch 1, which it does on its first wake-up (see owner).

// Actors of a world, by index.
const (
	actOwner = iota
	actSenderA
	actSenderB
	actClose
	actTimer
	numActors
)

var actorNames = [numActors]string{"owner", "sender A", "sender B", "close", "timer"}

// The scheduler's own steps, beside the inbox's: an actor picks one of
// several moves, and the owner's deadline passes.
const (
	stepChoose = "choose"
	stepFire   = "deadline passes"
)

// modelConfig is one search: which actors run, and how many messages each
// sender sends — each a push or a claim, and each granted claim released
// quietly or with a wake; with early, each sender sends one more, of
// epoch 1, and the owner enters epoch 1.
type modelConfig struct {
	timed, close, early bool
	sends               [numActors]int
}

type move struct{ actor, alt int }

type modelActor struct {
	run  chan int // the scheduler's go-ahead, with the alternative chosen
	op   string   // the step the actor waits to take
	alts int      // for stepChoose: how many alternatives
	done bool
	// call is the actor's program state at the start of its current call
	// and hist what each step of the call saw since; load is where hist
	// stood before the call's latest load.
	call, hist []byte
	load       int
}

// world is one run: an inbox, the actors, and what the check knows beyond
// the inbox.
type world struct {
	ib     *inbox
	cfg    modelConfig
	actors [numActors]*modelActor
	cur    int
	back   chan struct{}
	wg     sync.WaitGroup

	expired, armed bool
	holder         int       // the actor running the rank; -1 none
	next           [2][3]int // per epoch and sender: the number its next handled message must carry
	fail           string
	trace          []string // the steps taken, when tracing
}

func newWorld(cfg modelConfig, tracing bool) *world {
	w := &world{cfg: cfg, back: make(chan struct{}), holder: actOwner}
	if tracing {
		w.trace = []string{}
	}
	w.ib = newInbox()
	w.ib.sched = w
	progs := [numActors]func(){
		actOwner:   w.owner,
		actSenderA: func() { w.sender(actSenderA) },
		actSenderB: func() { w.sender(actSenderB) },
		actClose:   w.closer,
		actTimer:   w.timer,
	}
	for i, prog := range progs {
		a := &modelActor{run: make(chan int)}
		w.actors[i] = a
		if i == actClose && !cfg.close || i == actTimer && !cfg.timed {
			a.done = true
			continue
		}
		w.cur = i
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			prog()
			a.done = true
			w.back <- struct{}{}
		}()
		<-w.back
	}
	return w
}

// abort ends every actor still parked, and the inbox's timer.
func (w *world) abort() {
	for _, a := range w.actors {
		if !a.done {
			close(a.run)
		}
	}
	w.wg.Wait()
	if w.ib.timer != nil {
		w.ib.timer.Stop()
	}
}

// yield parks the running actor before its next step.
func (w *world) yield(op string, alts int) int {
	a := w.actors[w.cur]
	a.op, a.alts = op, alts
	w.back <- struct{}{}
	alt, ok := <-a.run
	if !ok {
		runtime.Goexit()
	}
	return alt
}

// step parks the running actor before an inbox step. An unlock is not a
// step: it can only let another actor's lock go ahead sooner.
func (w *world) step(op string) { w.yield(op, 0) }

func (w *world) choose(n int) bool { return w.yield(stepChoose, n) == 1 }

// now is the owner's clock: the deadline lies an hour out (waitOwned is
// passed an hour), and the clock reads past it once the deadline passes.
func (w *world) now() time.Time {
	a := w.actors[w.cur]
	t := time.Unix(0, 0)
	if w.expired {
		t = t.Add(2 * time.Hour)
		a.hist = append(a.hist, 'E')
	} else {
		a.hist = append(a.hist, 'e')
	}
	return t
}

// begin starts an actor's next call from the program state given.
func (w *world) begin(state ...byte) {
	a := w.actors[w.cur]
	a.call = append(a.call[:0], state...)
	a.hist, a.load = a.hist[:0], 0
}

func (w *world) violate(format string, args ...any) {
	if w.fail == "" {
		w.fail = fmt.Sprintf(format, args...)
	}
}

// acquire: actor who starts running the rank; nobody else may be.
func (w *world) acquire(who int) {
	if w.holder != -1 {
		w.violate("%s and %s run the rank at once", actorNames[w.holder], actorNames[who])
	}
	w.holder = who
}

// handle: the rank's runner handles m, which must be its sender's next of
// its epoch, and of an epoch the rank has entered.
func (w *world) handle(who int, m Message) {
	if w.holder != who {
		w.violate("%s handles a message while it does not run the rank", actorNames[who])
	}
	if m.Epoch > w.ib.entered.Load() {
		w.violate("%s handles an epoch-%d message of %s before the rank entered the epoch",
			actorNames[who], m.Epoch, actorNames[m.From])
	}
	next := &w.next[m.Epoch][m.From]
	if got := m.Data.(int); got != *next {
		w.violate("%s handles epoch-%d message %d of %s, want %d (lost, duplicated or reordered)",
			actorNames[who], m.Epoch, got, actorNames[m.From], *next)
	}
	(*next)++
}

// owner runs the rank's owner: drain, then wait — the first wait against a
// deadline when the config is timed — until the inbox is closed. With
// early messages it enters epoch 1 as it wakes the first time, and handles
// what the entry hands it before it drains.
func (w *world) owner() {
	ib, timed := w.ib, w.cfg.timed
	for round := byte(0); ; round = 1 {
		if round == 1 && w.cfg.early && ib.entered.Load() == 0 {
			w.begin('n')
			for _, m := range ib.enter(1, nil) {
				w.handle(actOwner, m)
			}
		}
		w.begin('d', round)
		for _, m := range ib.popBatch(nil) {
			w.handle(actOwner, m)
		}
		var d time.Duration
		if timed {
			d, w.armed = time.Hour, true
		}
		w.begin('w', round, b2c(timed))
		w.holder = -1
		ok, timedOut := ib.waitOwned(d)
		timed, w.armed = false, false
		if !ok && !timedOut {
			return
		}
		w.acquire(actOwner)
	}
}

// sender sends its messages, each a push or a claim — its epoch-0 ones,
// then its early one; it runs a granted claim like amt's lend: the claimed
// message, then drains until a release — quiet or waking, chosen at the
// claim — is granted.
func (w *world) sender(who int) {
	ib := w.ib
	n := w.cfg.sends[who]
	if w.cfg.early {
		n++
	}
	for k := 0; k < n; k++ {
		m := Message{From: who, Data: k}
		if k == w.cfg.sends[who] {
			m.Epoch, m.Data = 1, 0
		}
		w.begin('s', byte(k))
		if !w.choose(2) {
			ib.push(m)
			continue
		}
		if !ib.pushClaim(m) {
			continue
		}
		w.acquire(who)
		w.handle(who, m)
		wake := w.choose(2)
		for {
			w.begin('b', byte(k), b2c(wake))
			batch := ib.popBatch(nil)
			for _, q := range batch {
				w.handle(who, q)
			}
			if len(batch) > 0 {
				continue
			}
			w.begin('r', byte(k), b2c(wake))
			if ib.release(wake) {
				break
			}
		}
	}
}

func (w *world) closer() {
	w.begin('c')
	w.ib.close()
}

// timer is the deadline timer: the deadline passes, and the callback
// waitOwned gave time.AfterFunc drops a token.
func (w *world) timer() {
	w.begin('t')
	w.step(stepFire)
	w.ib.signal()
}

func b2c(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// locked reports whether an actor holds the inbox's mutex.
func (w *world) locked() bool {
	if !w.ib.mu.TryLock() {
		return true
	}
	w.ib.mu.Unlock()
	return false
}

// enabled lists the moves of this state.
func (w *world) enabled() []move {
	var moves []move
	for i, a := range w.actors {
		if a.done {
			continue
		}
		switch a.op {
		case "take":
			if len(w.ib.wake) == 0 {
				continue
			}
		case "lock":
			if w.locked() {
				continue
			}
		case stepFire:
			if !w.armed {
				continue
			}
		case stepChoose:
			for alt := 0; alt < a.alts; alt++ {
				moves = append(moves, move{i, alt})
			}
			continue
		}
		moves = append(moves, move{i, 0})
	}
	return moves
}

// apply lets one actor take its step and run to its next one.
func (w *world) apply(mv move) {
	a := w.actors[mv.actor]
	ib := w.ib
	before := ib.state.Load()
	op := a.op
	// What the actor's code can depend on: each word it loads, whether
	// each CAS succeeds, what it finds queued, and which steps it took.
	// Every loop in the inbox goes back to its load after a failed CAS,
	// so that load and the failure are forgotten.
	switch op {
	case "load":
		a.load = len(a.hist)
		a.hist = append(a.hist, 'L', byte(before))
	case "lock":
		a.hist = append(a.hist, 'K', byte(ib.entered.Load()))
		a.hist = appendMessages(append(appendMessages(a.hist, ib.queue[ib.head:]), 0xfd), ib.early)
		a.hist = append(a.hist, 0xff)
	case "entered":
		a.hist = append(a.hist, 'N', byte(ib.entered.Load()))
	case "CAS":
	default:
		a.hist = append(append(a.hist, op...), byte(mv.alt))
	}
	if op == stepFire {
		w.expired, w.armed = true, false
	}
	w.cur = mv.actor
	a.run <- mv.alt
	<-w.back
	after := ib.state.Load()
	if op == "CAS" {
		if after == before {
			a.hist = a.hist[:a.load]
		} else {
			a.hist = append(a.hist, 'C')
		}
	}
	// A borrower stops running the rank at the CAS that ends its borrow.
	if op == "CAS" && w.holder == mv.actor && mv.actor != actOwner &&
		before&ownerMask == ownerBorrowed && after&ownerMask != ownerBorrowed {
		w.holder = -1
	}
	if w.trace != nil {
		what := op
		if op == stepChoose {
			what = fmt.Sprintf("choose %d", mv.alt)
		}
		w.trace = append(w.trace, fmt.Sprintf("%-8s %-15s word %s -> %s, token %d",
			actorNames[mv.actor], what, wordString(before), wordString(after), len(ib.wake)))
	}
}

func appendMessages(b []byte, ms []Message) []byte {
	for _, q := range ms {
		b = append(b, byte(q.From), byte(q.Epoch), byte(q.Data.(int)))
	}
	return b
}

func wordString(s uint32) string {
	var b strings.Builder
	b.WriteString([]string{"running", "parked", "borrowed", "?"}[s&ownerMask])
	for _, f := range []struct {
		bit  uint32
		name string
	}{{stateQueued, "queued"}, {stateTimed, "timed"}, {stateClosed, "closed"}} {
		if s&f.bit != 0 {
			b.WriteString("|" + f.name)
		}
	}
	return b.String()
}

// key identifies the state for the search.
func (w *world) key() string {
	ib := w.ib
	b := []byte{byte(ib.state.Load()), byte(len(ib.wake)), b2c(w.locked()), byte(w.holder + 1),
		b2c(w.expired), b2c(w.armed), byte(ib.entered.Load())}
	for _, next := range w.next {
		b = append(b, byte(next[actSenderA]), byte(next[actSenderB]))
	}
	b = append(appendMessages(append(appendMessages(b, ib.queue[ib.head:]), 0xfd), ib.early), 0xfc)
	for _, a := range w.actors {
		b = append(append(b, 0xff, b2c(a.done), byte(a.alts)), a.op...)
		b = append(b, a.call...)
		b = append(b, 0xfe)
		b = append(b, a.hist...)
	}
	return string(b)
}

// terminal checks a state in which no actor can move: every sender has
// finished, every message is handled or, once the inbox is closed, still
// queued or early — and an owner asleep with no token has nothing to wake
// for: every message of an epoch it has entered is handled, and every
// other one waits in early.
func (w *world) terminal() {
	ib := w.ib
	for _, who := range []int{actSenderA, actSenderB} {
		if !w.actors[who].done {
			w.violate("%s is stuck before its %s", actorNames[who], w.actors[who].op)
		}
	}
	total, early := w.cfg.sends[actSenderA]+w.cfg.sends[actSenderB], 0
	if w.cfg.early {
		early = 2
	}
	handled, handledEarly := w.next[0][actSenderA]+w.next[0][actSenderB], w.next[1][actSenderA]+w.next[1][actSenderB]
	s := ib.state.Load()
	switch {
	case w.actors[actOwner].done:
		if queued := len(ib.queue) - ib.head + len(ib.early); handled+handledEarly+queued != total+early {
			w.violate("%d messages handled and %d queued or early of %d sent", handled+handledEarly, queued, total+early)
		}
	case s&ownerMask != ownerParked || s&(stateQueued|stateClosed) != 0:
		w.violate("the owner sleeps with no token and no borrower, on a word that has work for it: %s", wordString(s))
	case handled != total:
		w.violate("%d of %d messages handled, the owner asleep", handled, total)
	case ib.entered.Load() == 1 && handledEarly != early:
		w.violate("%d of %d epoch-1 messages handled, the owner asleep in epoch 1", handledEarly, early)
	case ib.entered.Load() == 0 && len(ib.early) != early:
		w.violate("%d of %d epoch-1 messages wait for the entry, the owner asleep before it", len(ib.early), early)
	}
}

// explore searches every interleaving of cfg's actors and returns the
// number of states it reached, or the path to the first violation and
// the violation.
func explore(cfg modelConfig) (states int, bad []move, violation string) {
	seen := map[string]struct{}{}
	var live *world
	var at, path []move
	defer func() {
		if live != nil {
			live.abort()
		}
	}()
	var dfs func() bool
	dfs = func() bool {
		if live == nil || len(at) > len(path) || !equalMoves(at, path[:len(at)]) {
			if live != nil {
				live.abort()
			}
			live, at = newWorld(cfg, false), at[:0]
		}
		for len(at) < len(path) {
			live.apply(path[len(at)])
			at = append(at, path[len(at)])
		}
		if live.fail == "" {
			k := live.key()
			if _, ok := seen[k]; ok {
				return true
			}
			seen[k] = struct{}{}
		}
		moves := live.enabled()
		if live.fail == "" && len(moves) == 0 {
			live.terminal()
		}
		if live.fail != "" {
			bad, violation = append([]move(nil), path...), live.fail
			return false
		}
		for _, mv := range moves {
			path = append(path, mv)
			if !dfs() {
				return false
			}
			path = path[:len(path)-1]
		}
		return true
	}
	dfs()
	return len(seen), bad, violation
}

func equalMoves(a, b []move) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// replay runs path on a fresh world with tracing on and returns its steps.
func replay(cfg modelConfig, path []move) []string {
	w := newWorld(cfg, true)
	defer w.abort()
	for _, mv := range path {
		w.apply(mv)
	}
	return w.trace
}

// TestStateWordInterleavings checks the inbox's ownership protocol over
// every interleaving of an owner, two senders, a close and the owner's
// deadline timer: at most one goroutine runs the rank, every message is
// handled exactly once and in its sender's order, and no run ends with the
// owner asleep while its inbox has a message, a waking release or a close
// for it. The searches pair the actors so that the whole check takes a few
// seconds: sender A sends two messages (so that a claim can try to
// overtake its own push), sender B one, and the timer and the close each
// join a search of fewer messages. The last search adds an early message
// per sender and the owner's entry to epoch 1: no such message may be
// handled before the entry, and none may be stranded by it.
func TestStateWordInterleavings(t *testing.T) {
	// One goroutine runs at a time; on one P a hand-off is a switch.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	two := [numActors]int{actSenderA: 2}
	for _, cfg := range []modelConfig{
		{sends: [numActors]int{actSenderA: 2, actSenderB: 1}},
		{sends: [numActors]int{actSenderA: 1, actSenderB: 1}, timed: true},
		{sends: two, timed: true},
		{sends: two, close: true},
		{sends: [numActors]int{actSenderA: 1}, timed: true, close: true},
		{sends: [numActors]int{actSenderA: 1}, early: true},
	} {
		name := fmt.Sprintf("A=%d,B=%d,timed=%v,close=%v,early=%v",
			cfg.sends[actSenderA], cfg.sends[actSenderB], cfg.timed, cfg.close, cfg.early)
		start := time.Now()
		states, bad, violation := explore(cfg)
		if violation != "" {
			t.Fatalf("%s: %s, after:\n\t%s", name, violation, strings.Join(replay(cfg, bad), "\n\t"))
		}
		t.Logf("%s: %d states in %v", name, states, time.Since(start).Round(time.Millisecond))
	}
}
