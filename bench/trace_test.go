package main

import (
	"sync"
	"testing"
	"time"

	"temperedlb/internal/obs"
)

const ms = time.Millisecond

// script builds rank 0's event sequence of one synthetic invocation. Begin
// events carry their start, end events their end; a collective is emitted
// once, at its end, with its duration — the shapes the runtime emits.
type script struct{ events []obs.Event }

func (s *script) at(t time.Duration, typ obs.EventType) {
	s.events = append(s.events, obs.Event{Type: typ, TS: t})
}

func (s *script) collective(start, end time.Duration) {
	s.events = append(s.events, obs.Event{Type: obs.EvCollective, TS: end, Dur: end - start})
}

func (s *script) epoch(start, end time.Duration, waves float64) {
	s.at(start, obs.EvEpochOpen)
	s.events = append(s.events, obs.Event{Type: obs.EvEpochClose, TS: end, Dur: end - start, Value: waves})
}

func TestSpanTreeAttributesStagesAndSelfTime(t *testing.T) {
	var s script
	s.at(0, obs.EvLBBegin)
	s.collective(0, 2*ms) // the load summary that opens the invocation
	// Iteration 1: 10 gossip, 4 transfer, 3+2 collectives, 1 left over.
	s.at(2*ms, obs.EvIterBegin)
	s.epoch(2*ms, 12*ms, 3)
	s.epoch(12*ms, 16*ms, 2)
	s.collective(16*ms, 19*ms)
	s.collective(19*ms, 21*ms)
	s.at(22*ms, obs.EvIterEnd)
	// Iteration 2: 6 gossip, 2 transfer, 1 collective, nothing left over.
	s.at(22*ms, obs.EvIterBegin)
	s.epoch(22*ms, 28*ms, 2)
	s.epoch(28*ms, 30*ms, 2)
	s.collective(30*ms, 31*ms)
	s.at(31*ms, obs.EvIterEnd)
	s.epoch(31*ms, 38*ms, 4) // the commit: the epoch after the last iteration
	s.at(40*ms, obs.EvLBEnd)

	tree := buildSpanTree(s.events)
	if len(tree.runs) != 1 {
		t.Fatalf("%d runs, want 1", len(tree.runs))
	}
	run := tree.runs[0]
	if run.dur != 40*ms || run.commit != 7*ms || len(run.iters) != 2 {
		t.Fatalf("run = %+v", run)
	}
	want := []iterSpan{
		{dur: 20 * ms, gossip: 10 * ms, transfer: 4 * ms, collectives: 5 * ms, self: 1 * ms},
		{dur: 9 * ms, gossip: 6 * ms, transfer: 2 * ms, collectives: 1 * ms, self: 0},
	}
	for i, it := range run.iters {
		if it != want[i] {
			t.Errorf("iteration %d = %+v, want %+v", i+1, it, want[i])
		}
		if it.gossip+it.transfer+it.collectives+it.self != it.dur {
			t.Errorf("iteration %d: the four stage times do not add up to its span", i+1)
		}
	}
	// 20 + 9 + 7 of the 40: the opening collective and the run's own
	// 2 ms are what the five stage times leave out.
	if got := run.accounted(); got != 36*ms {
		t.Errorf("accounted = %v, want 36ms", got)
	}
	if len(tree.epochs) != 5 || len(tree.collectives) != 4 {
		t.Errorf("%d epochs and %d collectives, want 5 and 4", len(tree.epochs), len(tree.collectives))
	}
	if mean(tree.waves) != 2.6 {
		t.Errorf("waves per epoch = %g, want 2.6", mean(tree.waves))
	}
}

// In the service, phases and their summary collectives sit outside any
// invocation, and an invocation may follow a phase or not.
func TestSpanTreeServicePhases(t *testing.T) {
	var s script
	for p := 0; p < 3; p++ {
		base := time.Duration(p) * 10 * ms
		s.at(base, obs.EvPhaseBegin)
		s.at(base+1*ms, obs.EvPhaseEnd)
		s.collective(base+1*ms, base+2*ms)
		s.collective(base+2*ms, base+3*ms)
		if p == 1 { // the trigger fired
			s.at(base+3*ms, obs.EvLBBegin)
			s.at(base+3*ms, obs.EvIterBegin)
			s.epoch(base+3*ms, base+5*ms, 2)
			s.epoch(base+5*ms, base+6*ms, 2)
			s.at(base+6*ms, obs.EvIterEnd)
			s.epoch(base+6*ms, base+8*ms, 2)
			s.at(base+8*ms, obs.EvLBEnd)
		}
	}
	tree := buildSpanTree(s.events)
	if len(tree.phaseStarts) != 3 || tree.phaseStarts[2]-tree.phaseStarts[1] != 10*ms {
		t.Errorf("phase starts = %v", tree.phaseStarts)
	}
	if len(tree.runs) != 1 || tree.runs[0].dur != 5*ms || tree.runs[0].commit != 2*ms {
		t.Errorf("runs = %+v", tree.runs)
	}
	if len(tree.collectives) != 6 {
		t.Errorf("%d collectives, want 6", len(tree.collectives))
	}
}

func TestFoldTracerFoldsHighVolumeEventsAndKeepsRankZeroSpans(t *testing.T) {
	const ranks, perRank = 8, 1000
	tr := newFoldTracer(ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr.Emit(obs.Event{Type: obs.EvEpochOpen, Rank: r})
			for i := 0; i < perRank; i++ {
				tr.Emit(obs.Event{Type: obs.EvHandler, Rank: r, Dur: time.Microsecond})
				tr.Emit(obs.Event{Type: obs.EvInformSend, Rank: r, Value: 3})
			}
			tr.Emit(obs.Event{Type: obs.EvMigration, Rank: r, Bytes: 12})
			tr.Emit(obs.Event{Type: obs.EvEpochClose, Rank: r, Dur: ms})
		}(r)
	}
	wg.Wait()
	f := tr.fold()
	if f.count[obs.EvHandler] != ranks*perRank || f.dur[obs.EvHandler] != ranks*perRank*time.Microsecond {
		t.Errorf("handlers: %d calls, %v busy", f.count[obs.EvHandler], f.dur[obs.EvHandler])
	}
	if f.value[obs.EvInformSend] != 3*ranks*perRank || f.bytes[obs.EvMigration] != 12*ranks {
		t.Errorf("entries %g, migration bytes %d", f.value[obs.EvInformSend], f.bytes[obs.EvMigration])
	}
	if want := int64(ranks * (2*perRank + 3)); f.total != want {
		t.Errorf("%d events, want %d", f.total, want)
	}
	spans := tr.rank0()
	if len(spans) != 2 || spans[0].Type != obs.EvEpochOpen || spans[1].Type != obs.EvEpochClose {
		t.Errorf("rank 0 kept %d events, want its epoch's open and close only", len(spans))
	}
	if spans[1].TS < spans[0].TS {
		t.Errorf("timestamps run backwards")
	}
}
