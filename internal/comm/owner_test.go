package comm

import (
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

// claimParked claims rank from a second goroutine's point of view: it
// retries until the owner has parked. A refused claim enqueues its
// message, which a correct owner drains and parks again.
func claimParked(nw *Network, rank int) {
	for !nw.SendClaim(Message{From: 0, To: rank}) {
		time.Sleep(100 * time.Microsecond)
	}
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
