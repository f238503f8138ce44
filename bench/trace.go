package main

import (
	"os"
	"sync"
	"time"

	"temperedlb/internal/obs"
)

const numEventTypes = int(obs.EvDupDrop) + 1

// foldTracer is the benchmark's obs.Tracer. A paper-scale op emits on
// the order of 10^7 events, far too many to store, so every event is
// folded into per-rank, per-type totals (count, summed duration, summed
// value, summed bytes) and only rank 0's structural events — the
// begin/end pairs of lb.run, lb.iteration, epoch and phase, and the
// collectives — are kept whole. Those are enough to rebuild rank 0's
// span tree and to write it as a Chrome trace.
type foldTracer struct {
	start  time.Time
	shards []foldShard // one per rank
}

type foldShard struct {
	mu    sync.Mutex
	count [numEventTypes]int64
	dur   [numEventTypes]time.Duration
	value [numEventTypes]float64
	bytes [numEventTypes]int64
	spans []obs.Event
	_     [40]byte // keep neighbouring shard locks off one cache line
}

func newFoldTracer(ranks int) *foldTracer {
	return &foldTracer{start: time.Now(), shards: make([]foldShard, ranks)}
}

// structural reports whether rank 0 keeps the event whole.
func structural(t obs.EventType) bool {
	switch t {
	case obs.EvLBBegin, obs.EvLBEnd, obs.EvIterBegin, obs.EvIterEnd,
		obs.EvEpochOpen, obs.EvEpochClose, obs.EvPhaseBegin, obs.EvPhaseEnd,
		obs.EvCollective:
		return true
	}
	return false
}

// Emit folds one event. Safe for concurrent use; ranks emit on their own
// goroutine, so a shard's lock is uncontended.
func (f *foldTracer) Emit(e obs.Event) {
	e.TS = time.Since(f.start)
	s := &f.shards[e.Rank]
	s.mu.Lock()
	s.count[e.Type]++
	s.dur[e.Type] += e.Dur
	s.value[e.Type] += e.Value
	s.bytes[e.Type] += int64(e.Bytes)
	if e.Rank == 0 && structural(e.Type) {
		s.spans = append(s.spans, e)
	}
	s.mu.Unlock()
}

// folded is a tracer's totals over all ranks.
type folded struct {
	count [numEventTypes]int64
	dur   [numEventTypes]time.Duration
	value [numEventTypes]float64
	bytes [numEventTypes]int64
	total int64
}

func (f *foldTracer) fold() folded {
	var out folded
	for i := range f.shards {
		s := &f.shards[i]
		s.mu.Lock()
		for t := 0; t < numEventTypes; t++ {
			out.count[t] += s.count[t]
			out.dur[t] += s.dur[t]
			out.value[t] += s.value[t]
			out.bytes[t] += s.bytes[t]
			out.total += s.count[t]
		}
		s.mu.Unlock()
	}
	return out
}

// rank0 returns rank 0's structural events in emission order.
func (f *foldTracer) rank0() []obs.Event {
	s := &f.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]obs.Event(nil), s.spans...)
}

// iterSpan is one lb.iteration span of rank 0, split by what ran inside
// it: the first epoch is the gossip stage, the second the transfer
// stage, then the collectives that evaluate the iteration; what is left
// is the iteration's self time.
type iterSpan struct {
	dur, gossip, transfer, collectives, self time.Duration
}

// runSpan is one lb.run span of rank 0. The epoch that follows the last
// iteration is the commit; collectives outside any iteration (the load
// summary that opens the invocation, a stream's AllGathers) and the
// span's own self time are the part the five stage times do not cover.
type runSpan struct {
	dur, commit time.Duration
	iters       []iterSpan
}

// accounted is the part of the run the five stage times add up to.
func (r runSpan) accounted() time.Duration {
	sum := r.commit
	for _, it := range r.iters {
		sum += it.dur
	}
	return sum
}

// spanTree is what rank 0's structural events say about one or more ops.
type spanTree struct {
	runs        []runSpan
	epochs      []time.Duration // every epoch, inside a run or not
	collectives []time.Duration
	waves       []float64 // termination waves per epoch, as rank 0 counted them
	phaseStarts []time.Duration
}

// buildSpanTree rebuilds the nesting of rank 0's spans. Begin events
// push, end events pop and charge their duration to the span they sit
// in; collectives are emitted once, at completion, with their duration.
// Self time is a span's duration minus the time its children cover.
func buildSpanTree(events []obs.Event) spanTree {
	type open struct {
		kind    obs.EventType
		start   time.Duration
		covered time.Duration
		epochs  []time.Duration
		colls   time.Duration
		run     *runSpan
	}
	var tree spanTree
	var stack []*open
	top := func() *open {
		if len(stack) == 0 {
			return nil
		}
		return stack[len(stack)-1]
	}
	pop := func(end time.Duration) (*open, time.Duration) {
		o := top()
		stack = stack[:len(stack)-1]
		d := end - o.start
		if p := top(); p != nil {
			p.covered += d
		}
		return o, d
	}
	for _, e := range events {
		switch e.Type {
		case obs.EvLBBegin:
			stack = append(stack, &open{kind: e.Type, start: e.TS, run: &runSpan{}})
		case obs.EvIterBegin, obs.EvEpochOpen:
			stack = append(stack, &open{kind: e.Type, start: e.TS})
		case obs.EvPhaseBegin:
			tree.phaseStarts = append(tree.phaseStarts, e.TS)
			stack = append(stack, &open{kind: e.Type, start: e.TS})
		case obs.EvCollective:
			tree.collectives = append(tree.collectives, e.Dur)
			if p := top(); p != nil {
				p.covered += e.Dur
				p.colls += e.Dur
			}
		case obs.EvEpochClose:
			if top() == nil {
				continue
			}
			_, d := pop(e.TS)
			tree.epochs = append(tree.epochs, d)
			tree.waves = append(tree.waves, e.Value)
			if p := top(); p != nil {
				p.epochs = append(p.epochs, d)
			}
		case obs.EvIterEnd:
			if top() == nil {
				continue
			}
			o, d := pop(e.TS)
			it := iterSpan{dur: d, collectives: o.colls, self: d - o.covered}
			if len(o.epochs) > 0 {
				it.gossip = o.epochs[0]
			}
			if len(o.epochs) > 1 {
				it.transfer = o.epochs[1]
			}
			// A third epoch would be a protocol change; it stays in the
			// iteration's duration and shows up as missing stage time.
			if p := top(); p != nil && p.run != nil {
				p.run.iters = append(p.run.iters, it)
			}
		case obs.EvLBEnd:
			if top() == nil {
				continue
			}
			o, d := pop(e.TS)
			o.run.dur = d
			if n := len(o.epochs); n > 0 {
				o.run.commit = o.epochs[n-1]
			}
			tree.runs = append(tree.runs, *o.run)
		case obs.EvPhaseEnd:
			if top() != nil {
				pop(e.TS)
			}
		}
	}
	return tree
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// writeChromeTrace writes rank 0's spans for Perfetto / chrome://tracing.
func writeChromeTrace(path string, events []obs.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
