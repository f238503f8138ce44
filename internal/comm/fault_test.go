package comm

import (
	"testing"
	"time"
)

func TestParseFaultSpec(t *testing.T) {
	sp, err := ParseFaultSpec("drop=0.01,dup=0.02,delay=5ms,delaymin=1ms,seed=42,slow=3:2ms")
	if err != nil {
		t.Fatal(err)
	}
	want := FaultSpec{
		Seed: 42, Drop: 0.01, Dup: 0.02,
		DelayMin: time.Millisecond, DelayMax: 5 * time.Millisecond,
		SlowRanks: map[int]time.Duration{3: 2 * time.Millisecond},
	}
	if sp.Seed != want.Seed || sp.Drop != want.Drop || sp.Dup != want.Dup ||
		sp.DelayMin != want.DelayMin || sp.DelayMax != want.DelayMax ||
		len(sp.SlowRanks) != 1 || sp.SlowRanks[3] != 2*time.Millisecond {
		t.Fatalf("parsed %+v, want %+v", sp, want)
	}
	// The String rendering round-trips.
	back, err := ParseFaultSpec(sp.String())
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != sp.String() {
		t.Fatalf("round trip %q != %q", back.String(), sp.String())
	}

	if sp, err := ParseFaultSpec("  "); err != nil || !sp.Empty() {
		t.Fatalf("blank spec: %+v, %v", sp, err)
	}
	for _, bad := range []string{
		"drop", "drop=x", "drop=1.5", "dup=-1", "delay=8", "wat=1",
		"slow=3", "slow=a:1ms", "slow=0:-1ms", "delaymin=5ms,delay=1ms",
		"retry=2ms", "retrycap=64ms",
	} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Errorf("ParseFaultSpec(%q): expected error", bad)
		}
	}
}

func TestFaultSpecValidateRankBounds(t *testing.T) {
	sp := FaultSpec{SlowRanks: map[int]time.Duration{5: time.Millisecond}}
	if err := sp.Validate(0); err != nil {
		t.Fatalf("unbounded validation rejected rank 5: %v", err)
	}
	if err := sp.Validate(4); err == nil {
		t.Fatal("rank 5 of 4 accepted")
	}
}

// drainAll closes the network and collects every message queued for rank.
func drainAll(nw *Network, rank int) []Message {
	nw.Close()
	var out []Message
	for {
		m, ok := nw.RecvWait(rank)
		if !ok {
			return out
		}
		out = append(out, m)
	}
}

func TestFaultPlanDropIsSeededAndDeterministic(t *testing.T) {
	run := func() (delivered map[int]bool, dropped int64) {
		nw := NewNetwork(2)
		plan := &FaultPlan{Seed: 7}
		plan.Drop[0] = 0.3
		nw.SetFaultPlan(plan)
		for i := 0; i < 400; i++ {
			nw.Send(Message{From: 0, To: 1, Data: i})
		}
		delivered = make(map[int]bool)
		for _, m := range drainAll(nw, 1) {
			delivered[m.Data.(int)] = true
		}
		return delivered, nw.Stats().Dropped.Total()
	}
	d1, n1 := run()
	d2, n2 := run()
	if n1 == 0 || len(d1) == 400 {
		t.Fatalf("drop plan dropped nothing (%d dropped, %d delivered)", n1, len(d1))
	}
	if int64(400-len(d1)) != n1 {
		t.Fatalf("dropped counter %d != missing %d", n1, 400-len(d1))
	}
	if n1 != n2 || len(d1) != len(d2) {
		t.Fatalf("runs differ: %d/%d vs %d/%d", n1, len(d1), n2, len(d2))
	}
	for v := range d1 {
		if !d2[v] {
			t.Fatalf("message %d delivered in run 1 but dropped in run 2", v)
		}
	}
	if got := nwDropOther(t); got != 0 {
		t.Fatalf("unrelated kind dropped %d", got)
	}
}

// nwDropOther checks that a kind outside the plan's drop set is
// untouched.
func nwDropOther(t *testing.T) int64 {
	nw := NewNetwork(2)
	plan := &FaultPlan{Seed: 7}
	plan.Drop[0] = 0.9
	nw.SetFaultPlan(plan)
	for i := 0; i < 100; i++ {
		nw.Send(Message{From: 0, To: 1, Kind: 2, Data: i})
	}
	if got := len(drainAll(nw, 1)); got != 100 {
		t.Fatalf("kind 2 lost messages: %d of 100", got)
	}
	return nw.Stats().Dropped[2]
}

func TestFaultPlanDuplication(t *testing.T) {
	nw := NewNetwork(2)
	plan := &FaultPlan{Seed: 11}
	plan.Dup[0] = 0.5
	nw.SetFaultPlan(plan)
	const n = 300
	for i := 0; i < n; i++ {
		nw.Send(Message{From: 0, To: 1, Data: i})
	}
	copies := make(map[int]int)
	for _, m := range drainAll(nw, 1) {
		copies[m.Data.(int)]++
	}
	st := nw.Stats()
	dups := st.Duplicated.Total()
	if dups == 0 {
		t.Fatal("dup plan duplicated nothing")
	}
	total, doubled := 0, int64(0)
	for v := 0; v < n; v++ {
		c := copies[v]
		if c < 1 || c > 2 {
			t.Fatalf("message %d delivered %d times", v, c)
		}
		total += c
		if c == 2 {
			doubled++
		}
	}
	if doubled != dups || int64(total) != int64(n)+dups {
		t.Fatalf("copies %d, doubled %d, dup counter %d", total, doubled, dups)
	}
	if got := st.Duplicated[0]; got != dups {
		t.Fatalf("Duplicated[0] = %d, want %d", got, dups)
	}
}

func TestFaultPlanDelayAndSlowRanksDeliverEverything(t *testing.T) {
	nw := NewNetwork(3)
	nw.SetFaultPlan(&FaultPlan{
		Seed:     3,
		DelayMin: 500 * time.Microsecond,
		DelayMax: 2 * time.Millisecond,
		SlowRanks: map[int]time.Duration{
			2: time.Millisecond,
		},
	})
	const n = 100
	start := time.Now()
	for i := 0; i < n; i++ {
		nw.Send(Message{From: 0, To: 1, Data: i})
		nw.Send(Message{From: 0, To: 2, Data: i})
	}
	got1 := len(drainAll(nw, 1))
	got2 := 0
	for {
		if _, ok := nw.RecvWait(2); !ok {
			break
		}
		got2++
	}
	if got1 != n || got2 != n {
		t.Fatalf("delivered %d/%d and %d/%d", got1, n, got2, n)
	}
	// Every delivery waited at least DelayMin (and the straggler rank at
	// least DelayMin + its penalty), so the drain cannot complete
	// instantly.
	if elapsed := time.Since(start); elapsed < 500*time.Microsecond {
		t.Fatalf("drain finished in %v, delays not applied", elapsed)
	}
}

func TestSetFaultPlanAfterTrafficPanics(t *testing.T) {
	nw := NewNetwork(2)
	nw.Send(Message{From: 0, To: 1})
	defer func() {
		if recover() == nil {
			t.Error("expected panic installing a fault plan after traffic")
		}
	}()
	nw.SetFaultPlan(&FaultPlan{DelayMax: time.Millisecond})
}

func TestSetFaultPlanValidatesRanges(t *testing.T) {
	nw := NewNetwork(2)
	plan := &FaultPlan{}
	plan.Drop[0] = 1.0
	defer func() {
		if recover() == nil {
			t.Error("expected panic on drop probability 1.0")
		}
	}()
	nw.SetFaultPlan(plan)
}

func TestEmptyFaultPlanIsInert(t *testing.T) {
	nw := NewNetwork(2)
	nw.SetFaultPlan(&FaultPlan{Seed: 99}) // active() is false: stored as nil
	for i := 0; i < 50; i++ {
		nw.Send(Message{From: 0, To: 1, Data: i})
	}
	// Per-sender FIFO holds exactly as without any plan.
	for i := 0; i < 50; i++ {
		m, ok := nw.Recv(1)
		if !ok || m.Data.(int) != i {
			t.Fatalf("message %d out of order or missing (%v, %v)", i, m.Data, ok)
		}
	}
	if st := nw.Stats(); st.Dropped.Total() != 0 || st.Duplicated.Total() != 0 {
		t.Fatal("empty plan produced faults")
	}
}

func TestWaitOwnedDeadline(t *testing.T) {
	nw := NewNetwork(2)
	if ok, timedOut := nw.WaitOwned(1, 2*time.Millisecond); ok || !timedOut {
		t.Fatalf("empty inbox: ok=%v timedOut=%v", ok, timedOut)
	}
	nw.Send(Message{From: 0, To: 1, Data: 9})
	if ok, timedOut := nw.WaitOwned(1, time.Second); !ok || timedOut {
		t.Fatalf("queued message: ok=%v timedOut=%v", ok, timedOut)
	}
	if m, ok := nw.Recv(1); !ok || m.Data.(int) != 9 {
		t.Fatalf("queued message: ok=%v data=%v", ok, m.Data)
	}
	// A message arriving mid-wait wakes the owner before the deadline.
	go func() {
		time.Sleep(2 * time.Millisecond)
		nw.Send(Message{From: 0, To: 1, Data: 10})
	}()
	if ok, timedOut := nw.WaitOwned(1, 5*time.Second); !ok || timedOut {
		t.Fatalf("mid-wait message: ok=%v timedOut=%v", ok, timedOut)
	}
	if m, ok := nw.Recv(1); !ok || m.Data.(int) != 10 {
		t.Fatalf("mid-wait message: ok=%v data=%v", ok, m.Data)
	}
	nw.Close()
	if ok, timedOut := nw.WaitOwned(1, time.Second); ok || timedOut {
		t.Fatalf("closed network: ok=%v timedOut=%v", ok, timedOut)
	}
}
