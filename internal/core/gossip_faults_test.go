package core

import (
	"strings"
	"testing"
	"time"

	"temperedlb/internal/comm"
)

// TestEngineGossipFaultsRich drives the delay-ordered gossip queue with
// the full grammar: drops and duplicates land near their configured
// rates, refinement still improves, and the same seed reproduces the
// run exactly.
func TestEngineGossipFaultsRich(t *testing.T) {
	a := clusteredAssignment(64, 4, 400, 1)
	cfg := smallTempered()
	cfg.GossipFaults = comm.FaultSpec{
		Drop: 0.2, Dup: 0.2,
		DelayMin: time.Millisecond, DelayMax: 5 * time.Millisecond,
		SlowRanks: map[int]time.Duration{1: 10 * time.Millisecond},
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	dropped, duplicated, delivered := 0, 0, 0
	for _, st := range res.History {
		dropped += st.GossipDropped
		duplicated += st.GossipDuplicated
		delivered += st.GossipMessages
	}
	if dropped == 0 || duplicated == 0 {
		t.Fatalf("faults injected nothing: dropped %d duplicated %d", dropped, duplicated)
	}
	if rate := float64(dropped) / float64(dropped+delivered-duplicated); rate < 0.1 || rate > 0.35 {
		t.Errorf("observed drop rate %g, configured 0.2", rate)
	}
	if res.FinalImbalance >= res.InitialImbalance {
		t.Errorf("no improvement under rich faults: %g -> %g",
			res.InitialImbalance, res.FinalImbalance)
	}
	eng2, _ := NewEngine(cfg)
	res2, err := eng2.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	if res2.FinalImbalance != res.FinalImbalance || len(res2.Moves) != len(res.Moves) {
		t.Errorf("rich faulted run not reproducible: %v vs %v", res2, res)
	}
	for i := range res.History {
		if res.History[i].GossipDropped != res2.History[i].GossipDropped ||
			res.History[i].GossipDuplicated != res2.History[i].GossipDuplicated {
			t.Fatalf("fault sequence not reproducible at row %d", i)
		}
	}
}

// TestEngineGossipZeroDelayRichMatchesFIFO pins that a non-empty spec
// with zero effect equals the fault-free run, row by row: one slow rank
// with a zero penalty (no drop, no dup, no delay band) selects the
// delay-ordered queue without perturbing anything — every delivery
// lands at time zero and the enqueue-index tie-break is the FIFO order.
func TestEngineGossipZeroDelayRichMatchesFIFO(t *testing.T) {
	a := clusteredAssignment(48, 3, 300, 9)
	base, _ := NewEngine(smallTempered())
	resBase, err := base.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallTempered()
	cfg.GossipFaults.SlowRanks = map[int]time.Duration{0: 0}
	rich, _ := NewEngine(cfg)
	resRich, err := rich.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	if !rich.sc.queue.plan.CanDelay() {
		t.Fatal("spec did not select the delay-ordered queue")
	}
	if resRich.FinalImbalance != resBase.FinalImbalance ||
		resRich.BestTrial != resBase.BestTrial ||
		resRich.BestIteration != resBase.BestIteration ||
		len(resRich.Moves) != len(resBase.Moves) {
		t.Errorf("zero-effect rich spec changed the outcome: %v vs %v", resRich, resBase)
	}
	for i := range resBase.History {
		b, r := resBase.History[i], resRich.History[i]
		if b.GossipMessages != r.GossipMessages || b.GossipEntries != r.GossipEntries ||
			b.Transfers != r.Transfers || b.Imbalance != r.Imbalance {
			t.Fatalf("row %d diverged: %+v vs %+v", i, b, r)
		}
	}
}

// TestGossipFaultConfigValidate: the engine's spec is checked by the
// transport's validator, ranges at NewEngine and rank bounds at Run —
// including the two cases the old engine-side copy let through (a
// minimum delay without a window, a straggler rank the job does not
// have).
func TestGossipFaultConfigValidate(t *testing.T) {
	for i, sp := range []comm.FaultSpec{
		{Dup: 1.0},
		{DelayMin: -time.Millisecond},
		{DelayMin: 2 * time.Millisecond, DelayMax: time.Millisecond},
		{DelayMin: time.Millisecond},
		{SlowRanks: map[int]time.Duration{-1: time.Millisecond}},
	} {
		cfg := smallTempered()
		cfg.GossipFaults = sp
		if _, err := NewEngine(cfg); err == nil || !strings.HasPrefix(err.Error(), "comm:") {
			t.Errorf("bad spec %d: NewEngine returned %v, want a comm: error", i, err)
		}
	}
	cfg := smallTempered()
	cfg.GossipFaults.SlowRanks = map[int]time.Duration{99999: time.Millisecond}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("rank bound checked before the rank count is known: %v", err)
	}
	if _, err := eng.Run(clusteredAssignment(16, 2, 50, 1)); err == nil || !strings.HasPrefix(err.Error(), "comm:") {
		t.Errorf("slow rank 99999 of 16: Run returned %v, want a comm: error", err)
	}
}

// TestGossipQueueMatchesNetwork: there is one fault model. Replaying the
// stamps of an engine iteration — every (sender, send index) it asked
// its plan about — through a comm.Network under the same plan, the
// network drops and duplicates exactly the pairs the engine's queue
// does, and the totals are the iteration's GossipDropped and
// GossipDuplicated.
func TestGossipQueueMatchesNetwork(t *testing.T) {
	a := clusteredAssignment(64, 4, 400, 1)
	cfg := smallTempered()
	cfg.GossipFaults = comm.FaultSpec{Seed: 42, Drop: 0.2, Dup: 0.2} // no delay: the network delivers synchronously
	eng, _ := NewEngine(cfg)
	res, err := eng.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	// The engine's scratch holds the last iteration's plan and send counts.
	plan, sent := eng.sc.queue.plan, eng.sc.queue.sent
	last := res.History[len(res.History)-1]

	n := a.NumRanks()
	nw := comm.NewNetwork(n)
	nw.SetFaultPlan(plan)
	var q gossipQueue
	q.compile(cfg.GossipFaults, n)
	q.reset(plan.Seed)
	stamps := 0
	for from := range sent {
		to := (from + 1) % n
		for seq := int64(1); seq <= sent[from]; seq++ {
			stamps++
			nw.Send(comm.Message{From: from, To: to, Kind: gossipKind})
			onNetwork := nw.Pending(to)
			for nw.Pending(to) > 0 {
				nw.Recv(to)
			}
			queued := len(q.fifo)
			q.send(Rank(from), []Send{{To: Rank(to)}})
			if inQueue := len(q.fifo) - queued; inQueue != onNetwork {
				t.Fatalf("send %d of rank %d: %d copies on the network, %d in the engine's queue",
					seq, from, onNetwork, inQueue)
			}
		}
	}
	if stamps == 0 || last.GossipDropped == 0 || last.GossipDuplicated == 0 {
		t.Fatalf("nothing to compare: %d stamps, %d dropped, %d duplicated",
			stamps, last.GossipDropped, last.GossipDuplicated)
	}
	st := nw.Stats()
	if int(st.Dropped.Total()) != last.GossipDropped || q.dropped != last.GossipDropped {
		t.Errorf("dropped: network %d, queue %d, iteration %d", st.Dropped.Total(), q.dropped, last.GossipDropped)
	}
	if int(st.Duplicated.Total()) != last.GossipDuplicated || q.duplicated != last.GossipDuplicated {
		t.Errorf("duplicated: network %d, queue %d, iteration %d", st.Duplicated.Total(), q.duplicated, last.GossipDuplicated)
	}
}
