package comm

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

func TestSendRecvBasic(t *testing.T) {
	nw := NewNetwork(2)
	nw.Send(Message{From: 0, To: 1, Kind: 7, Data: "hello"})
	m, ok := nw.Recv(1)
	if !ok {
		t.Fatal("no message")
	}
	if m.From != 0 || m.Kind != 7 || m.Data != "hello" {
		t.Errorf("message mangled: %+v", m)
	}
	if _, ok := nw.Recv(1); ok {
		t.Error("spurious second message")
	}
}

func TestRecvEmptyNonBlocking(t *testing.T) {
	nw := NewNetwork(1)
	if _, ok := nw.Recv(0); ok {
		t.Error("Recv on empty inbox returned a message")
	}
}

func TestPerSenderFIFO(t *testing.T) {
	nw := NewNetwork(2)
	for i := 0; i < 100; i++ {
		nw.Send(Message{From: 0, To: 1, Data: i})
	}
	for i := 0; i < 100; i++ {
		m, ok := nw.Recv(1)
		if !ok || m.Data != i {
			t.Fatalf("out of order at %d: %+v", i, m)
		}
	}
}

func TestSeqAssigned(t *testing.T) {
	nw := NewNetwork(2)
	nw.Send(Message{From: 0, To: 1})
	nw.Send(Message{From: 0, To: 1})
	m1, _ := nw.Recv(1)
	m2, _ := nw.Recv(1)
	if m1.Seq >= m2.Seq {
		t.Errorf("sequence numbers not increasing: %d %d", m1.Seq, m2.Seq)
	}
}

func TestRecvWaitBlocksUntilSend(t *testing.T) {
	nw := NewNetwork(2)
	done := make(chan Message)
	go func() {
		m, _ := nw.RecvWait(1)
		done <- m
	}()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("RecvWait returned before send")
	default:
	}
	nw.Send(Message{From: 0, To: 1, Data: 42})
	m := <-done
	if m.Data != 42 {
		t.Errorf("got %+v", m)
	}
}

func TestRecvWaitWakesOnClose(t *testing.T) {
	nw := NewNetwork(1)
	done := make(chan bool)
	go func() {
		_, ok := nw.RecvWait(0)
		done <- ok
	}()
	time.Sleep(5 * time.Millisecond)
	nw.Close()
	if ok := <-done; ok {
		t.Error("RecvWait returned ok=true after close on empty inbox")
	}
}

func TestCloseDrainsQueuedMessages(t *testing.T) {
	nw := NewNetwork(1)
	nw.Send(Message{From: 0, To: 0, Data: 1})
	nw.Close()
	if m, ok := nw.RecvWait(0); !ok || m.Data != 1 {
		t.Error("queued message lost on close")
	}
	if _, ok := nw.RecvWait(0); ok {
		t.Error("phantom message after drain")
	}
}

func TestSendAfterClosePanics(t *testing.T) {
	nw := NewNetwork(1)
	nw.Close()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	nw.Send(Message{From: 0, To: 0})
}

func TestSendBadRankPanics(t *testing.T) {
	nw := NewNetwork(2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	nw.Send(Message{From: 0, To: 5})
}

func TestNewNetworkValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewNetwork(0)
}

func TestPendingAndTotalSent(t *testing.T) {
	nw := NewNetwork(2)
	if nw.Pending(1) != 0 {
		t.Error("pending nonzero at start")
	}
	nw.Send(Message{From: 0, To: 1})
	nw.Send(Message{From: 0, To: 1})
	if nw.Pending(1) != 2 {
		t.Errorf("Pending = %d", nw.Pending(1))
	}
	if got := nw.Stats().Sent.Total(); got != 2 {
		t.Errorf("Stats().Sent.Total() = %d", got)
	}
	nw.Recv(1)
	if nw.Pending(1) != 1 {
		t.Errorf("Pending after recv = %d", nw.Pending(1))
	}
}

func TestConcurrentSendersNoLoss(t *testing.T) {
	nw := NewNetwork(8)
	const perSender, senders = 500, 7
	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		wg.Add(1)
		go func(from int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				nw.Send(Message{From: from, To: 0, Data: i})
			}
		}(s)
	}
	received := make(chan int)
	go func() {
		count := 0
		lastPerSender := make(map[int]int)
		for count < perSender*senders {
			m, ok := nw.RecvWait(0)
			if !ok {
				break
			}
			// Per-sender FIFO must hold even under concurrency.
			if prev, seen := lastPerSender[m.From]; seen && m.Data.(int) != prev+1 {
				t.Errorf("sender %d out of order: %d after %d", m.From, m.Data, prev)
			}
			lastPerSender[m.From] = m.Data.(int)
			count++
		}
		received <- count
	}()
	wg.Wait()
	if got := <-received; got != perSender*senders {
		t.Errorf("received %d of %d", got, perSender*senders)
	}
}

func TestInboxCompaction(t *testing.T) {
	// Push and pop enough to trigger the compaction path repeatedly.
	nw := NewNetwork(1)
	for round := 0; round < 10; round++ {
		for i := 0; i < 200; i++ {
			nw.Send(Message{From: 0, To: 0, Data: round*200 + i})
		}
		for i := 0; i < 200; i++ {
			m, ok := nw.Recv(0)
			if !ok || m.Data != round*200+i {
				t.Fatalf("compaction corrupted order at %d/%d: %+v", round, i, m)
			}
		}
	}
}

func TestJitterDeliversEverything(t *testing.T) {
	nw := NewNetwork(2)
	nw.SetFaultPlan(&FaultPlan{Seed: 0x5eed, DelayMax: 2 * time.Millisecond})
	const n = 300
	for i := 0; i < n; i++ {
		nw.Send(Message{From: 0, To: 1, Data: i})
	}
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		m, ok := nw.RecvWait(1)
		if !ok {
			t.Fatal("network closed early")
		}
		v := m.Data.(int)
		if seen[v] {
			t.Fatalf("duplicate delivery of %d", v)
		}
		seen[v] = true
	}
	if _, ok := nw.Recv(1); ok {
		t.Error("phantom extra message")
	}
}

func TestCloseWaitsForDelayedDeliveries(t *testing.T) {
	// Regression: Close used to close the inboxes while jittered
	// deliveries were still sleeping in their goroutines, so receivers
	// draining after Close would miss them — counted messages silently
	// lost on shutdown.
	nw := NewNetwork(2)
	nw.SetFaultPlan(&FaultPlan{Seed: 0x5eed, DelayMax: 3 * time.Millisecond})
	const n = 200
	for i := 0; i < n; i++ {
		nw.Send(Message{From: 0, To: 1, Data: i})
	}
	nw.Close()
	got := 0
	for {
		if _, ok := nw.RecvWait(1); !ok {
			break
		}
		got++
	}
	if got != n {
		t.Fatalf("drained %d of %d messages after Close", got, n)
	}
}

func TestPerKindCounters(t *testing.T) {
	nw := NewNetwork(2)
	for i := 0; i < 5; i++ {
		nw.Send(Message{From: 0, To: 1, Kind: 3})
	}
	for i := 0; i < 2; i++ {
		nw.Send(Message{From: 0, To: 1, Kind: 9})
	}
	st := nw.Stats()
	if st.Sent[3] != 5 || st.Sent[9] != 2 || st.Sent[4] != 0 {
		t.Errorf("Sent[3], [9], [4] = %d, %d, %d, want 5, 2, 0", st.Sent[3], st.Sent[9], st.Sent[4])
	}
	if st.Sent.Total() != 7 {
		t.Errorf("Sent.Total() = %d", st.Sent.Total())
	}
	// Two transports' snapshots add kind by kind.
	st.Add(nw.Stats())
	if st.Sent[3] != 10 || st.Sent.Total() != 14 {
		t.Errorf("after Add: Sent[3] = %d, total %d, want 10, 14", st.Sent[3], st.Sent.Total())
	}
}

func TestSendBadKindPanics(t *testing.T) {
	nw := NewNetwork(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	nw.Send(Message{From: 0, To: 0, Kind: MaxKinds})
}

// TestByteAccountingConcurrentSenders hammers one network from many
// sender goroutines with payloads the injected sizer gives a known size
// and checks the per-kind byte totals add up exactly — the counters must
// not lose updates under contention.
func TestByteAccountingConcurrentSenders(t *testing.T) {
	nw := NewNetwork(4)
	nw.EnableByteAccounting(func(v any) int { return len(v.(string)) })
	payload := "0123456789abcdef"
	per := len(payload)
	const senders, each = 8, 400
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(from int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				nw.Send(Message{From: from % 4, To: (from + 1) % 4, Kind: Kind(from % 2), Data: payload})
			}
		}(s)
	}
	wg.Wait()
	want := int64(senders * each * per)
	st := nw.Stats()
	if got := st.Bytes.Total(); got != want {
		t.Errorf("Bytes.Total() = %d, want %d", got, want)
	}
	if got := st.Bytes[0] + st.Bytes[1]; got != want {
		t.Errorf("per-kind bytes = %d, want %d", got, want)
	}
	if got := st.Sent[0] + st.Sent[1]; got != senders*each {
		t.Errorf("per-kind sends = %d, want %d", got, senders*each)
	}
}

// TestByteAccountingOffByDefault checks the byte counters stay zero
// until a sizer is handed in, and count only the sends made after it.
func TestByteAccountingOffByDefault(t *testing.T) {
	nw := NewNetwork(2)
	nw.Send(Message{From: 0, To: 1, Kind: 1, Data: make([]byte, 4096)})
	st := nw.Stats()
	if st.Bytes.Total() != 0 {
		t.Errorf("Bytes.Total() = %d without byte accounting", st.Bytes.Total())
	}
	if st.Sent[1] != 1 {
		t.Errorf("message counting must stay on: %d", st.Sent[1])
	}
	nw.EnableByteAccounting(func(v any) int { return len(v.([]byte)) })
	nw.Send(Message{From: 0, To: 1, Kind: 1, Data: make([]byte, 7)})
	if got := nw.Stats().Bytes[1]; got != 7 {
		t.Errorf("Bytes[1] = %d after one sized send of 7, want 7", got)
	}
}

// TestNetworkCountersCostAConstant: the send counters are striped into a
// fixed number of stripes inside the Network, so a network grows with its
// rank count by exactly what it always has — per rank an inbox and its
// wake-token channel (the two allocations), the inbox pointer and the
// sender's sequence number — and the stripes are a constant on top.
// NewNetwork(4096) allocates 862 208 B with go1.24 on linux/amd64, and
// 600 064 B when the inbox woke its owner through a condition variable: per rank
// the channel's 112-byte size class against the Cond's 64, and an inbox
// 16 B larger (its scheduler field), in the 80-byte class instead of 64.
func TestNetworkCountersCostAConstant(t *testing.T) {
	const big = 4096
	// The least of a few readings: MemStats counts the whole process, so a
	// reading may include what another goroutine allocated meanwhile.
	measure := func(n int) (allocs, bytes uint64) {
		allocs, bytes = math.MaxUint64, math.MaxUint64
		for range 5 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			nw := NewNetwork(n)
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(nw)
			allocs = min(allocs, after.Mallocs-before.Mallocs)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		return allocs, bytes
	}
	allocs1, bytes1 := measure(1)
	allocsBig, bytesBig := measure(big)
	t.Logf("NewNetwork(1): %d allocs, %d B; NewNetwork(%d): %d allocs, %d B", allocs1, bytes1, big, allocsBig, bytesBig)
	if got := allocsBig - allocs1; got != 2*(big-1) {
		t.Errorf("NewNetwork(%d) makes %d allocations more than NewNetwork(1), want 2 per extra rank (%d)", big, got, 2*(big-1))
	}
	// The two per-rank allocations round up to their size class — a
	// multiple of 16 at these sizes — and the two per-rank slices may round
	// up to a page each.
	class := func(size uintptr) uintptr { return (size + 15) &^ 15 }
	// A chan struct{} is the runtime's channel header alone: 96 B on
	// 64-bit targets before go1.23, 104 B since, in the 112-byte class.
	const tokenChan = 112
	perRank := class(unsafe.Sizeof(inbox{})) + tokenChan + unsafe.Sizeof(&inbox{}) + unsafe.Sizeof(atomic.Int64{})
	if limit := uint64(perRank)*(big-1) + 2*8192; bytesBig-bytes1 > limit {
		t.Errorf("NewNetwork(%d) allocates %d B more than NewNetwork(1), over the %d B its per-rank items can take", big, bytesBig-bytes1, limit)
	}
	if limit := uint64(unsafe.Sizeof(Network{})) + 1024; bytes1 > 2*limit {
		t.Errorf("NewNetwork(1) allocates %d B, more than the Network struct (%d B) and one rank", bytes1, unsafe.Sizeof(Network{}))
	}
}
