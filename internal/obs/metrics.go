package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. All methods are
// safe for concurrent use; the fast path is a single atomic add.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Store overwrites the counter; used when folding externally accumulated
// totals (e.g. transport counters) into a registry snapshot.
func (c *Counter) Store(n int64) { c.v.Store(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 metric that can move both ways.
type Gauge struct {
	bits atomic.Uint64
}

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histogramShards bounds the per-histogram shard count; shards are
// selected by the caller-provided rank, so contention only occurs when
// more ranks than shards observe the same histogram simultaneously.
const histogramShards = 16

// Histogram accumulates float64 observations into fixed buckets,
// sharded so concurrent ranks do not serialize on one set of counters.
// Bucket upper bounds are inclusive (Prometheus "le" semantics), with an
// implicit +Inf bucket.
type Histogram struct {
	bounds []float64
	shards [histogramShards]histogramShard
}

type histogramShard struct {
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 sum, CAS-updated
	buckets []atomic.Int64
	_       [32]byte // decouple neighbouring shards' cache lines
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	sort.Float64s(h.bounds)
	for i := range h.shards {
		h.shards[i].buckets = make([]atomic.Int64, len(h.bounds)+1)
	}
	return h
}

// Observe records v on the shard selected by rank. Callers pass their
// rank (or any stable per-goroutine index) so the hot path needs no
// shared state to pick a shard.
func (h *Histogram) Observe(rank int, v float64) {
	s := &h.shards[uint(rank)%histogramShards]
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	s.buckets[i].Add(1)
	s.count.Add(1)
	for {
		old := s.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if s.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Store overwrites the histogram with counts — per bucket, the +Inf
// slot last — and their sum, as Counter.Store does for a counter: the
// owner of a distribution kept elsewhere folds it in here before an
// export. The count is the buckets' total. Store writes one shard, so a
// stored histogram must never be observed; Store calls must not overlap.
func (h *Histogram) Store(counts []int64, sum float64) {
	if len(counts) != len(h.bounds)+1 {
		panic(fmt.Sprintf("obs: Histogram.Store with %d counts for %d buckets", len(counts), len(h.bounds)+1))
	}
	s := &h.shards[0]
	total := int64(0)
	for b, c := range counts {
		s.buckets[b].Store(c)
		total += c
	}
	s.count.Store(total)
	s.sumBits.Store(math.Float64bits(sum))
}

// HistogramSnapshot is a merged view of a histogram's shards.
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds, ascending; Counts has one extra +Inf slot
	Counts []int64   // per-bucket counts (not cumulative)
	Count  int64
	Sum    float64
}

// Snapshot merges all shards.
func (h *Histogram) Snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.bounds)+1),
	}
	for i := range h.shards {
		s := &h.shards[i]
		for b := range s.buckets {
			snap.Counts[b] += s.buckets[b].Load()
		}
		snap.Count += s.count.Load()
		snap.Sum += math.Float64frombits(s.sumBits.Load())
	}
	return snap
}

// DefaultLatencyBounds are the histogram buckets used for the runtime's
// latency metrics, in seconds: 1µs to ~16s in powers of four.
func DefaultLatencyBounds() []float64 { return slices.Clone(latencyBounds[:]) }

var latencyBounds = [...]float64{1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3, 256e-3, 1, 4, 16}

// LatencyBuckets is the bucket count of a histogram over
// DefaultLatencyBounds, the +Inf bucket included: a constant, so a
// writer that keeps its own counts can keep them in an array.
const LatencyBuckets = len(latencyBounds) + 1

// Metrics is a registry of named instruments. Get-or-create lookups take
// a write lock and are meant for setup time; the returned instrument
// pointers are cached by the instrumented code, so steady-state updates
// are pure atomic operations.
//
// Names follow Prometheus conventions and may carry a label suffix in
// exposition syntax, e.g. `comm_messages_total{kind="user"}`; the
// exporter treats everything before the brace as the metric family.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string // family -> HELP text
	onScrape func()            // refreshes folded counters before an export
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		help:     make(map[string]string),
	}
}

// SetHelp records the HELP text for a metric family (the name without
// any label suffix); the exporter emits it once per family, before the
// TYPE line. Idempotent and safe for concurrent use.
func (m *Metrics) SetHelp(family, text string) {
	m.mu.Lock()
	m.help[family] = text
	m.mu.Unlock()
}

// OnScrape registers the function every export of the registry
// (WritePrometheus, so a file and a /metrics request alike) runs first:
// the owner of counters that are folded from totals kept elsewhere stores
// them there, so no reader sees a registry older than its own request.
// Set it at setup time, before the registry is shared.
func (m *Metrics) OnScrape(refresh func()) { m.onScrape = refresh }

// helpFor returns the registered HELP text for a family, "" when none.
func (m *Metrics) helpFor(family string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.help[family]
}

// Counter returns the named counter, creating it on first use.
func (m *Metrics) Counter(name string) *Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.counters[name]
	if !ok {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (m *Metrics) Gauge(name string) *Gauge {
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.gauges[name]
	if !ok {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later calls ignore bounds).
func (m *Metrics) Histogram(name string, bounds []float64) *Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.hists[name]
	if !ok {
		h = newHistogram(bounds)
		m.hists[name] = h
	}
	return h
}

// visit walks all instruments in deterministic name order.
func (m *Metrics) visit(counter func(name string, c *Counter), gauge func(name string, g *Gauge), hist func(name string, h *Histogram)) {
	m.mu.Lock()
	cn := sortedKeys(m.counters)
	gn := sortedKeys(m.gauges)
	hn := sortedKeys(m.hists)
	m.mu.Unlock()
	for _, n := range cn {
		counter(n, m.Counter(n))
	}
	for _, n := range gn {
		gauge(n, m.Gauge(n))
	}
	for _, n := range hn {
		hist(n, m.Histogram(n, nil))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
