package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestRecorderCollectsAndSorts(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 100; i++ {
		r.Emit(Event{Type: EvMigration, Rank: i % 7, Peer: (i + 1) % 7, Object: int64(i)})
	}
	if r.Len() != 100 {
		t.Fatalf("Len = %d, want 100", r.Len())
	}
	events := r.Events()
	if len(events) != 100 {
		t.Fatalf("Events len = %d, want 100", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].TS < events[i-1].TS {
			t.Fatalf("events not sorted at %d: %v < %v", i, events[i].TS, events[i-1].TS)
		}
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("Len after Reset = %d", r.Len())
	}
}

func TestRecorderConcurrentEmit(t *testing.T) {
	r := NewRecorder()
	const ranks, per = 16, 500
	var wg sync.WaitGroup
	for rank := 0; rank < ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Emit(Event{Type: EvInformSend, Rank: rank, Peer: i % ranks})
			}
		}(rank)
	}
	wg.Wait()
	if got := r.Len(); got != ranks*per {
		t.Fatalf("Len = %d, want %d", got, ranks*per)
	}
}

func TestCounterGaugeConcurrent(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("test_total")
	g := m.Gauge("test_gauge")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Set(42.5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 42.5 {
		t.Errorf("gauge = %g, want 42.5", g.Value())
	}
	// Registry returns the same instrument on re-lookup.
	if m.Counter("test_total") != c {
		t.Error("Counter lookup not idempotent")
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	var h Histogram
	h.Observe(0.5e-6) // <= 1µs
	h.Observe(1e-3)   // <= 1ms (le is inclusive)
	h.Observe(2e-3)   // <= 4ms
	h.Observe(16)     // <= 16s
	h.Observe(1000)   // +Inf
	snap := h.Snapshot()
	want := [LatencyBuckets]int64{0: 1, 5: 1, 6: 1, 12: 1, 13: 1}
	if snap.Counts != want {
		t.Fatalf("counts = %v, want %v", snap.Counts, want)
	}
	total := int64(0)
	for _, c := range snap.Counts {
		total += c
	}
	if snap.Count != total || total != 5 {
		t.Fatalf("count = %d, buckets hold %d, want 5", snap.Count, total)
	}
	if want := 0.5e-6 + 1e-3 + 2e-3 + 16 + 1000; math.Abs(snap.Sum-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", snap.Sum, want)
	}
}

func TestHistogramStoreReplaces(t *testing.T) {
	var h Histogram
	h.Observe(1e-3)
	h.Observe(1e-3)
	h.Observe(100)
	var stored HistogramSnapshot
	stored.Counts[2] = 3
	stored.Sum = 30e-6
	h.Store(stored)
	h.Store(stored)
	snap := h.Snapshot()
	if snap.Counts != stored.Counts || snap.Count != 3 || snap.Sum != stored.Sum {
		t.Fatalf("after two Stores of %v (sum %g): counts %v, count %d, sum %g; want the stored values alone",
			stored.Counts, stored.Sum, snap.Counts, snap.Count, snap.Sum)
	}
}

func TestEventTypeNames(t *testing.T) {
	seen := map[string]EventType{}
	for ty := EventType(0); int(ty) < numEventTypes; ty++ {
		name := ty.String()
		if name == "" {
			t.Fatalf("event type %d has no name", ty)
		}
		// Paired span types intentionally share a name; everything else
		// must be unique.
		if prev, dup := seen[name]; dup && !pairedSpan(prev, ty) {
			t.Fatalf("name %q reused by %d and %d", name, prev, ty)
		}
		seen[name] = ty
	}
	if got := EventType(200).String(); got != "event(200)" {
		t.Fatalf("unknown type name = %q", got)
	}
}

func pairedSpan(a, b EventType) bool {
	pairs := map[EventType]EventType{
		EvEpochOpen: EvEpochClose, EvPhaseBegin: EvPhaseEnd,
		EvIterBegin: EvIterEnd, EvLBBegin: EvLBEnd,
	}
	return pairs[a] == b || pairs[b] == a
}

func TestRecorderStampsMonotonic(t *testing.T) {
	r := NewRecorder()
	r.Emit(Event{Type: EvEpochOpen, Rank: 0})
	time.Sleep(time.Millisecond)
	r.Emit(Event{Type: EvEpochClose, Rank: 0})
	ev := r.Events()
	if ev[1].TS <= ev[0].TS {
		t.Fatalf("timestamps not increasing: %v then %v", ev[0].TS, ev[1].TS)
	}
}
