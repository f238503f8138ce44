package obs

import (
	"math"
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

// latencyBounds are the upper bounds of every histogram's buckets, in
// seconds: 1µs to 16s in powers of four.
var latencyBounds = [...]float64{1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3, 256e-3, 1, 4, 16}

// LatencyBuckets is a histogram's bucket count, the +Inf bucket included.
const LatencyBuckets = len(latencyBounds) + 1

// Histogram counts latencies, in seconds, in buckets bounded above by
// latencyBounds, inclusive (Prometheus "le" semantics), then +Inf; the
// count is the buckets' total. It has one writer at a time, Observe or
// Store, and any number of readers, so an observation is one bucket add
// and one sum store. A histogram is a value: embed one where its writer
// keeps its other state.
type Histogram struct {
	buckets [LatencyBuckets]atomic.Int64
	sum     atomic.Uint64 // float64 bits
}

// Observe records v. Only the histogram's one writer may call it.
func (h *Histogram) Observe(v float64) {
	h.buckets[sort.SearchFloat64s(latencyBounds[:], v)].Add(1)
	h.sum.Store(math.Float64bits(math.Float64frombits(h.sum.Load()) + v))
}

// Store overwrites the histogram with s's counts and sum, as
// Counter.Store does for a counter: the owner of a distribution kept
// elsewhere folds it in here before an export.
func (h *Histogram) Store(s HistogramSnapshot) {
	for b, c := range s.Counts {
		h.buckets[b].Store(c)
	}
	h.sum.Store(math.Float64bits(s.Sum))
}

// HistogramSnapshot is a histogram's reading.
type HistogramSnapshot struct {
	Counts [LatencyBuckets]int64 // per bucket, not cumulative; +Inf last
	Count  int64                 // the buckets' total
	Sum    float64
}

// Snapshot reads the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for b := range h.buckets {
		s.Counts[b] = h.buckets[b].Load()
		s.Count += s.Counts[b]
	}
	s.Sum = math.Float64frombits(h.sum.Load())
	return s
}

// Add adds o's observations to s.
func (s *HistogramSnapshot) Add(o HistogramSnapshot) {
	for b, c := range o.Counts {
		s.Counts[b] += c
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

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

// Histogram returns the named histogram, creating it on first use.
func (m *Metrics) Histogram(name string) *Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.hists[name]
	if !ok {
		h = &Histogram{}
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
		hist(n, m.Histogram(n))
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
