package amt

import (
	"slices"
	"sync/atomic"
	"unsafe"

	"temperedlb/internal/comm"
	"temperedlb/internal/comm/wire"
	"temperedlb/internal/obs"
)

// Stat names one thing a rank counts about itself.
type Stat int

const (
	UserSent     Stat = iota // Send calls
	ObjectSent               // SendObject calls
	Forwards                 // object messages passed on toward their object
	HandlerCalls             // rank and object handlers run
	// Migrations counts the objects the rank sent away, MigrationBytes
	// their state in wire-codec bytes.
	Migrations
	MigrationBytes
	// EpochsRun counts the epochs entered; TokenRounds adds, as each one
	// ends, the number of termination waves the rank saw in it.
	EpochsRun
	TokenRounds
	// Collectives counts the tree collectives entered, CollectiveMsgs the
	// messages the rank sent for them (one up-partial and one down-copy per
	// child).
	Collectives
	CollectiveMsgs
	// Retries counts retransmissions of unacknowledged epoch sends,
	// DupDrops the redundant deliveries discarded on receipt.
	Retries
	DupDrops
	// Lent counts the times the rank ran a parked rank on its own goroutine
	// instead of waking its owner: once for every send the transport
	// granted it, and once for every further rank it reached following a
	// termination token — a followed hop is a borrow.
	Lent
	numStats
)

// ContextStats is the one place a rank counts what it did (DESIGN.md §6).
// Each counter is written only by the goroutine running the rank — one at
// a time, see Context.pump — and may be loaded by anyone at any time, while
// Run is in flight included.
type ContextStats [numStats]atomic.Int64

// Counts is a reading of a ContextStats, or a sum of several.
type Counts [numStats]int64

// NodeStats is a node's view of the job so far: what the ranks it hosts
// counted, summed — Bytes, the wire-codec payload bytes they sent per
// transport kind, is zero unless the run is observed (metrics or a stream
// attached) — and what its transport counted — Wire, the socket
// transport's frame counters, is zero unless Wired. Everything that
// reports a number reads this fold: the metrics registry, FaultStats,
// stream frames, a binary's epilogue. Folded over every node of a job
// (Job.Stats) it is the job's.
type NodeStats struct {
	Ranks     Counts
	Bytes     comm.KindCounts
	Transport comm.Stats
	Wire      comm.WireStats
	Wired     bool
}

// Stats folds the node's view as of the call. Safe to call before, during
// and after Run.
func (rt *Runtime) Stats() NodeStats {
	var ns NodeStats
	rt.addStats(&ns)
	return ns
}

func (rt *Runtime) addStats(ns *NodeStats) {
	for i := range rt.ranks {
		if rc := rt.ranks[i].Load(); rc != nil {
			for s := range rc.Stats {
				ns.Ranks[s] += rc.Stats[s].Load()
			}
			for k := range rc.sentBytes {
				ns.Bytes[k] += rc.sentBytes[k].Load()
			}
		}
	}
	ns.Transport.Add(rt.nw.Stats())
	if rt.link != nil {
		ns.Wired = true
		ns.Wire.Add(rt.link.WireStats())
	}
}

// TotalMessages returns the number of transport messages sent so far
// (including control traffic).
func (rt *Runtime) TotalMessages() int64 { return rt.nw.Stats().Sent.Total() }

// FaultStats reports the damage a fault plan did and what recovery it
// took.
type FaultStats struct {
	// Dropped and Duplicated count transport-level injections.
	Dropped, Duplicated int64
	// Retries counts retransmissions of unacknowledged epoch sends;
	// DupDrops counts receiver-side discards of redundant deliveries
	// (transport duplicates and redundant retransmissions).
	Retries, DupDrops int64
}

// Faults is the fault-injection and recovery part of the view.
func (ns NodeStats) Faults() FaultStats {
	return FaultStats{
		Dropped:    ns.Transport.Dropped.Total(),
		Duplicated: ns.Transport.Duplicated.Total(),
		Retries:    ns.Ranks[Retries],
		DupDrops:   ns.Ranks[DupDrops],
	}
}

// FaultStats returns the accumulated fault-injection and recovery
// counters. Safe to call during and after Run.
func (rt *Runtime) FaultStats() FaultStats { return rt.Stats().Faults() }

// family is a counter family of the registry beside the count it reports.
type family struct {
	name, help string
	read       func(*NodeStats) int64
}

// Metrics stores every family below from a NodeStats: nodeFamilies always,
// wireFamilies on a socket transport, and one series of each of
// kindFamilies per message kind that has a count, labelled by kindNames.
var (
	nodeFamilies = []family{
		{"amt_handler_invocations_total", "Active-message handler invocations.", func(ns *NodeStats) int64 { return ns.Ranks[HandlerCalls] }},
		{"amt_epochs_total", "Epochs run under termination detection.", func(ns *NodeStats) int64 { return ns.Ranks[EpochsRun] }},
		{"termination_token_rounds_total", "Safra termination-token rounds.", func(ns *NodeStats) int64 { return ns.Ranks[TokenRounds] }},
		{"amt_migrations_total", "Objects migrated between ranks.", func(ns *NodeStats) int64 { return ns.Ranks[Migrations] }},
		{"amt_migration_bytes_total", "Wire-codec bytes of migrated object state.", func(ns *NodeStats) int64 { return ns.Ranks[MigrationBytes] }},
		{"amt_collectives_total", "Tree-collective rounds completed.", func(ns *NodeStats) int64 { return ns.Ranks[Collectives] }},
		{"amt_collective_messages_total", "Messages sent by tree collectives.", func(ns *NodeStats) int64 { return ns.Ranks[CollectiveMsgs] }},
		{"amt_retries_total", "Retransmissions of unacknowledged epoch sends.", func(ns *NodeStats) int64 { return ns.Ranks[Retries] }},
		{"amt_duplicates_dropped_total", "Receiver-side discards of redundant deliveries.", func(ns *NodeStats) int64 { return ns.Ranks[DupDrops] }},
		{"comm_messages_all_total", "Transport messages sent, all kinds.", func(ns *NodeStats) int64 { return ns.Transport.Sent.Total() }},
		{"comm_bytes_all_total", "Wire-codec payload bytes sent, all kinds.", func(ns *NodeStats) int64 { return ns.Bytes.Total() }},
	}
	wireFamilies = []family{
		{"wire_frames_out_total", "Encoded frames written to peer processes.", func(ns *NodeStats) int64 { return ns.Wire.FramesOut }},
		{"wire_bytes_out_total", "Frame bytes written to peer processes.", func(ns *NodeStats) int64 { return ns.Wire.BytesOut }},
		{"wire_frames_in_total", "Frames decoded from peer processes.", func(ns *NodeStats) int64 { return ns.Wire.FramesIn }},
		{"wire_bytes_in_total", "Frame bytes read from peer processes.", func(ns *NodeStats) int64 { return ns.Wire.BytesIn }},
		{"wire_peers", "Connected peer processes.", func(ns *NodeStats) int64 { return ns.Wire.Peers }},
		{"wire_redials_total", "Connection attempts beyond the first, per peer.", func(ns *NodeStats) int64 { return ns.Wire.Redials }},
		{"wire_queue_highwater", "Deepest per-peer writer queue seen, in messages.", func(ns *NodeStats) int64 { return ns.Wire.QueueHighWater }},
	}
	kindFamilies = []struct {
		name, help string
		of         func(*NodeStats) *comm.KindCounts
	}{
		{"comm_messages_total", "Transport messages sent, by kind.", func(ns *NodeStats) *comm.KindCounts { return &ns.Transport.Sent }},
		{"comm_bytes_total", "Wire-codec payload bytes sent, by kind.", func(ns *NodeStats) *comm.KindCounts { return &ns.Bytes }},
		{"comm_dropped_total", "Messages dropped by fault injection, by kind.", func(ns *NodeStats) *comm.KindCounts { return &ns.Transport.Dropped }},
		{"comm_duplicated_total", "Messages duplicated by fault injection, by kind.", func(ns *NodeStats) *comm.KindCounts { return &ns.Transport.Duplicated }},
	}
)

// kindNames maps transport kinds to the labels of the comm_* metric
// families; keep in sync with the kind constants in context.go.
var kindNames = [numKinds]string{
	"user", "object", "migrate", "locupdate", "token", "done",
	"coll_up", "coll_down", "ack",
}

// EnableMetrics switches on the runtime's metrics registry — and with it,
// from Run on, each rank's payload byte counters, every send sized as
// wire.PayloadSize sizes it, so comm_bytes_total is wire-codec bytes on
// every transport, and each rank's epoch-latency histogram — and returns
// the registry. The registry refolds itself
// whenever it is exported (obs.Metrics.OnScrape), so a live /metrics scrape
// reads what Metrics would return. It is idempotent; call before Run.
func (rt *Runtime) EnableMetrics() *obs.Metrics {
	rt.mustNotRun("EnableMetrics")
	if rt.metrics != nil {
		return rt.metrics
	}
	m := obs.NewMetrics()
	rt.epochSeconds = m.Histogram("amt_epoch_seconds")
	m.SetHelp("amt_epoch_seconds", "Epoch wall-clock duration in seconds.")
	for _, f := range slices.Concat(nodeFamilies, wireFamilies) {
		m.SetHelp(f.name, f.help)
	}
	for _, f := range kindFamilies {
		m.SetHelp(f.name, f.help)
	}
	m.OnScrape(func() { rt.Metrics() })
	rt.metrics = m
	return m
}

// Metrics returns the runtime's registry with every counter family stored
// from the node's Stats as of the call, and amt_epoch_seconds from the
// ranks' histograms, or nil when metrics were not enabled. It is the only
// writer of those families. Safe to call during and after Run.
func (rt *Runtime) Metrics() *obs.Metrics {
	m := rt.metrics
	if m == nil {
		return nil
	}
	rt.foldMu.Lock()
	defer rt.foldMu.Unlock()
	ns := rt.Stats()
	families := nodeFamilies
	if ns.Wired {
		families = slices.Concat(nodeFamilies, wireFamilies)
	}
	for _, f := range families {
		m.Counter(f.name).Store(f.read(&ns))
	}
	for _, f := range kindFamilies {
		counts := f.of(&ns)
		for k, name := range kindNames {
			if counts[k] > 0 {
				m.Counter(obs.LabeledName(f.name, "kind", name)).Store(counts[k])
			}
		}
	}
	rt.foldEpochs()
	return m
}

// observer is what observing adds to one rank: the Sizer that weighs what
// it sends and the histogram of its epochs' durations, which only the
// rank's runner writes. A runtime makes its ranks' in one slice, before
// they start. An observer is padded to whole cache lines, so in a slice
// that starts on a page — one of more than 128 ranks does — no two ranks
// write one line.
type observer struct {
	observerFields
	_ [(64 - unsafe.Sizeof(observerFields{})%64) % 64]byte
}

type observerFields struct {
	sizer  wire.Sizer
	epochs obs.Histogram
}

// foldEpochs stores the ranks' epoch latencies, summed, in the registry's
// histogram. Called with foldMu held.
func (rt *Runtime) foldEpochs() {
	var total obs.HistogramSnapshot
	for i := range rt.ranks {
		if rc := rt.ranks[i].Load(); rc != nil && rc.epochs != nil {
			total.Add(rc.epochs.Snapshot())
		}
	}
	rt.epochSeconds.Store(total)
}
