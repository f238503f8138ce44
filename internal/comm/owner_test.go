package comm

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ownedRank is the consumer side of the ownership tests: the state of
// one rank that its owner and its borrowers take turns running. Nothing
// in it is synchronized — the inbox's hand-over is what orders the
// accesses, so the race detector checks the protocol — except inFlight,
// which counts the goroutines inside handle at once.
type ownedRank struct {
	t        *testing.T
	next     []int // per sender: the payload its next message must carry
	handled  int
	inFlight atomic.Int32
}

func (o *ownedRank) handle(m Message) {
	if o.inFlight.Add(1) != 1 {
		o.t.Error("two goroutines run the rank at once")
	}
	if got := m.Data.(int); got != o.next[m.From] {
		o.t.Errorf("sender %d: got message %d, want %d (lost, duplicated or reordered)", m.From, got, o.next[m.From])
	}
	o.next[m.From]++
	o.handled++
	o.inFlight.Add(-1)
}

// TestOwnershipProtocol drives one owned rank from several producers
// that mix plain sends with claims. Every message must be handled exactly
// once, in per-sender order, by one goroutine at a time — and the owner,
// woken only by a plain push or by the release that found the count
// complete, must not miss its wake-up (the test would hang). Producer 1
// starts alone and only claims, pausing after each refusal, until the
// owner has parked on an empty inbox and one claim is granted; under the
// full load that follows, grants are likely but not certain.
func TestOwnershipProtocol(t *testing.T) {
	const producers, each, total = 4, 5000, 4 * 5000
	nw := NewNetwork(producers + 1)
	o := &ownedRank{t: t, next: make([]int, producers+1)}
	var claims atomic.Int64
	granted := make(chan struct{})

	var wg sync.WaitGroup
	for p := 1; p <= producers; p++ {
		wg.Add(1)
		go func(from int) {
			defer wg.Done()
			if from != 1 {
				<-granted
			}
			var buf []Message
			for i := 0; i < each; i++ {
				m := Message{From: from, To: 0, Data: i}
				alone := from == 1 && claims.Load() == 0
				if !alone && i%3 == from%3 {
					nw.Send(m)
					continue
				}
				if !nw.SendClaim(m) {
					if alone {
						time.Sleep(100 * time.Microsecond)
					}
					continue
				}
				if claims.Add(1) == 1 {
					close(granted)
				}
				o.handle(m)
				for {
					buf = nw.RecvBatch(0, buf[:0])
					for _, q := range buf {
						o.handle(q)
					}
					if len(buf) == 0 && nw.Release(0, o.handled == total) {
						break
					}
				}
			}
			if from == 1 && claims.Load() == 0 {
				t.Error("no claim was ever granted, though the owner had only one sender to park for")
				close(granted)
			}
		}(p)
	}

	var buf []Message
	for {
		buf = nw.RecvBatch(0, buf[:0])
		for _, q := range buf {
			o.handle(q)
		}
		if o.handled == total {
			break
		}
		if len(buf) > 0 {
			continue
		}
		if ok, _ := nw.WaitOwned(0, 0); !ok {
			t.Fatal("network closed under the owner")
		}
	}
	wg.Wait()
	t.Logf("%d of %d claims granted", claims.Load(), total-total/3)
	for from := 1; from <= producers; from++ {
		if o.next[from] != each {
			t.Errorf("sender %d: %d of %d messages handled", from, o.next[from], each)
		}
	}
}

// TestChaosStateWord races the inbox state word's lock-free transitions —
// the claim, the empty RecvBatch, the quiet release — against everything
// that takes the lock: plain pushes, the owner's waits, alternately
// without a deadline and against a 50 µs one (so the timed flag comes and
// goes under borrowers), and releases that wake the owner at random. Every
// message must be handled once, in per-sender order, by one goroutine at a
// time; and the run must end, which it cannot if a wake-up is lost: the
// owner then sleeps through its last untimed wait.
func TestChaosStateWord(t *testing.T) {
	const senders, each, total = 8, 2000, 8 * 2000
	nw := NewNetwork(senders + 1)
	o := &ownedRank{t: t, next: make([]int, senders+1)}
	var claims, wakes atomic.Int64
	drain := func(buf []Message) []Message {
		buf = nw.RecvBatch(0, buf[:0])
		for i := range buf {
			o.handle(buf[i])
			buf[i] = Message{}
		}
		return buf
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for s := 1; s <= senders; s++ {
			wg.Add(1)
			go func(from int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(from)))
				var buf []Message
				for i := 0; i < each; i++ {
					m := Message{From: from, To: 0, Data: i}
					if rng.Intn(4) == 0 {
						nw.Send(m)
						continue
					}
					if !nw.SendClaim(m) {
						// Give the owner time to drain and park, or claims
						// are rarely granted.
						time.Sleep(time.Duration(rng.Intn(20)) * time.Microsecond)
						continue
					}
					claims.Add(1)
					o.handle(m)
					for {
						wake := rng.Intn(2) == 0 || o.handled == total
						if buf = drain(buf); len(buf) == 0 && nw.Release(0, wake) {
							if wake {
								wakes.Add(1)
							}
							break
						}
					}
				}
			}(s)
		}
		var buf []Message
		for wait := 0; ; wait++ {
			if buf = drain(buf); o.handled == total {
				break
			}
			if len(buf) > 0 {
				continue
			}
			var d time.Duration
			if wait%2 == 1 {
				d = 50 * time.Microsecond
			}
			if ok, timedOut := nw.WaitOwned(0, d); !ok && !timedOut {
				t.Error("network closed under the owner")
				break
			}
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("not done after a minute: a wake-up was lost")
	}
	t.Logf("%d claims granted, %d released with a wake-up", claims.Load(), wakes.Load())
	for from := 1; from <= senders; from++ {
		if o.next[from] != each {
			t.Errorf("sender %d: %d of %d messages handled", from, o.next[from], each)
		}
	}
}

// claimParked claims rank from a second goroutine's point of view: it
// retries until the owner has parked. A refused claim enqueues its
// message, which a correct owner drains and parks again.
func claimParked(nw *Network, rank int) {
	for !nw.SendClaim(Message{From: 0, To: rank}) {
		time.Sleep(100 * time.Microsecond)
	}
}

// TestOwnershipReleaseRefusedWhileQueued: a message pushed during a
// borrow makes the quiet release fail, so the borrower drains it instead
// of parking the rank on a queue nobody will be woken for; once drained,
// the release parks the rank and the next push wakes its owner.
func TestOwnershipReleaseRefusedWhileQueued(t *testing.T) {
	nw := NewNetwork(2)
	woke := make(chan Message, 1)
	go func() {
		for {
			if ok, _ := nw.WaitOwned(1, 0); !ok {
				return
			}
			for _, m := range nw.RecvBatch(1, nil) {
				if m.Data != nil { // not one of claimParked's refused claims
					woke <- m
				}
			}
		}
	}()
	claimParked(nw, 1)
	nw.Send(Message{From: 0, To: 1, Data: "during"})
	if nw.Release(1, false) {
		t.Fatal("Release granted with a message queued during the borrow")
	}
	if got := nw.RecvBatch(1, nil); len(got) != 1 || got[0].Data != "during" {
		t.Fatalf("borrower drained %v, want the message sent during the borrow", got)
	}
	if !nw.Release(1, false) {
		t.Fatal("Release refused with an empty inbox")
	}
	nw.Send(Message{From: 0, To: 1, Data: "after"})
	select {
	case m := <-woke:
		if m.Data != "after" {
			t.Fatalf("owner got %v, want the message sent after the release", m.Data)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a push after the release did not wake the owner")
	}
	nw.Close()
}

// TestCloseEndsOwnedWaitWhileBorrowed: a borrower that dies mid-handler
// never releases; closing the network must still end the owner's wait.
func TestCloseEndsOwnedWaitWhileBorrowed(t *testing.T) {
	nw := NewNetwork(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if ok, _ := nw.WaitOwned(1, 0); !ok {
				return
			}
			nw.RecvBatch(1, nil)
		}
	}()
	claimParked(nw, 1)
	nw.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("owner still parked after Close: a borrowed inbox swallowed the close")
	}
}

// TestOwnedWaitDeadlineSleepsThroughBorrow: the deadline of an owned
// wait cannot hand the rank back while a borrower runs it; it fires at
// the release instead.
func TestOwnedWaitDeadlineSleepsThroughBorrow(t *testing.T) {
	nw := NewNetwork(2)
	type result struct{ ok, timedOut bool }
	woke := make(chan result, 1)
	var borrowed atomic.Bool
	go func() {
		for {
			ok, timedOut := nw.WaitOwned(1, 20*time.Millisecond)
			if ok { // a refused claim's message
				nw.RecvBatch(1, nil)
			} else if !timedOut || borrowed.Load() {
				woke <- result{ok, timedOut}
				return
			}
		}
	}()
	// Until a claim finds it parked, the owner times out and parks again.
	claimParked(nw, 1)
	borrowed.Store(true)
	time.Sleep(60 * time.Millisecond) // three deadlines, all inside the borrow
	select {
	case r := <-woke:
		t.Fatalf("owner returned %+v while its rank was borrowed", r)
	default:
	}
	if !nw.Release(1, false) {
		t.Fatal("Release refused with an empty inbox")
	}
	select {
	case r := <-woke:
		if r.ok || !r.timedOut {
			t.Fatalf("after release: got %+v, want a timeout", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("owner missed its deadline after the release")
	}
	nw.Close()
}
