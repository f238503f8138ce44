package tempered

import (
	"math"
	"math/rand"
	"sync"

	"temperedlb/internal/amt"
	"temperedlb/internal/clock"
	"temperedlb/internal/core"
	"temperedlb/internal/obs"
)

// Handlers bundles the active-message handlers the distributed balancer
// needs. Register them on the runtime before Run, then hand the value to
// RunDistributed on every rank.
type Handlers struct {
	gossip amt.HandlerID
	xfer   amt.HandlerID
	fetch  amt.HandlerID
	// st is indexed by rank; a rank's entry is nil until its first
	// invocation, and only whoever runs a rank touches its entry.
	st []*rankState
	// table is the load table every local rank's gossip state shares:
	// the balancer's one cross-rank structure (core.LoadTable).
	table *core.LoadTable
	// scratch lends a *core.TransferScratch to each running transfer
	// stage. A stage never yields, so it holds about one per goroutine
	// running ranks, however many ranks the node hosts.
	scratch sync.Pool
	// openWatched and iterWatched are openOps and iterOps followed by the
	// load summary's combine: the ops of a watched job's reduces, built
	// once for every rank and invocation.
	openWatched, iterWatched []amt.ReduceOp
}

// rankState is the per-rank balancer state touched by handlers; at most
// one goroutine runs a rank at a time — its own, or a sender's while the
// rank is parked, handed over by the network (comm.Network) — so no
// locking is needed. It is built at the rank's first invocation and kept
// for the handlers' life, its gossip state with it.
type rankState struct {
	inform *core.InformState
	// cfg is the current invocation's Config, the one the gossip state
	// and the transfer stage point at; kept here, it is not copied to the
	// heap on every invocation.
	cfg core.Config

	// The three working distributions of an invocation, their storage
	// reused across trials and invocations: input is the caller's loads
	// map, sorted once; virtual is the trial's evolving set, the one the
	// lb.transfer handler adds to; best is the lowest-imbalance virtual
	// seen so far, which the commit epoch realizes.
	input, virtual, best workSet

	// trial and iter locate the current refinement step for trace
	// stamps; gossipSent/gossipEntries count this rank's outgoing gossip
	// traffic within the current iteration (Begin seeds plus handler
	// forwards), feeding the per-iteration stats reduce.
	trial, iter   int
	gossipSent    int
	gossipEntries int

	// xferRNG is the transfer stage's private generator, re-pointed at
	// each trial's stream.
	xferRNG *rand.Rand

	// reduce is the reused input of the invocation's statistics reduces,
	// made at the width of the widest, an iteration's.
	reduce []float64
}

// xferMsg proposes one task relocation: the sender cedes the (virtual)
// task to the receiver for the current refinement iteration.
type xferMsg struct {
	Obj  amt.ObjectID
	Load float64
}

// RegisterHandlers installs the balancer's handlers on the runtime. The
// base handler id space must not collide with the application's; pass a
// free base id.
func RegisterHandlers(rt *amt.Runtime, base amt.HandlerID) *Handlers {
	h := &Handlers{
		gossip: base,
		xfer:   base + 1,
		fetch:  base + 2,
		st:     make([]*rankState, rt.NumRanks()),
		table:  core.NewLoadTable(rt.NumRanks()),
	}
	summary := obs.NewLoadSummary(rt.NumRanks())
	h.openWatched = obs.WithSummaryOps(openOps, summary, amt.ReduceSum, amt.ReduceMax)
	h.iterWatched = obs.WithSummaryOps(iterOps, summary, amt.ReduceSum, amt.ReduceMax)
	h.scratch.New = func() any { return new(core.TransferScratch) }
	rt.NameHandler(h.gossip, "lb.gossip")
	rt.NameHandler(h.xfer, "lb.transfer")
	rt.NameHandler(h.fetch, "lb.fetch")
	rt.Register(h.gossip, func(rc *amt.Context, from core.Rank, data any) {
		// Gossip is dispatched only inside a gossip epoch the rank has
		// entered, so its state exists by then.
		st := h.st[rc.Rank()]
		m := data.(*core.InformMsg)
		tracing := rc.Tracer() != nil
		if tracing {
			rc.Emit(obs.Event{Type: obs.EvInformRecv, Peer: int(from), Object: -1,
				Trial: st.trial, Iteration: st.iter, Value: float64(m.Len())})
		}
		sends, _ := st.inform.Receive(*m)
		sendFanOut(rc, h.gossip, st, sends, tracing)
	})
	rt.Register(h.xfer, func(rc *amt.Context, from core.Rank, data any) {
		h.st[rc.Rank()].virtual.receive(data.(xferMsg))
	})
	rt.RegisterObject(h.fetch, func(rc *amt.Context, obj amt.ObjectID, state any, from core.Rank, data any) {
		rc.Migrate(obj, data.(core.Rank))
	})
	return h
}

// sendFanOut sends one fan-out of the inform stage and counts it. Every
// send of a fan-out carries the same message — one round, one snapshot of
// the sender's knowledge — as a pointer to the sending state's slot for
// the round, which boxes nothing: the slot is not written again before
// the state's next Reset, which follows the epoch's termination (see
// core.InformState.payload).
func sendFanOut(rc *amt.Context, gossip amt.HandlerID, st *rankState, sends []core.Send, tracing bool) {
	if len(sends) == 0 {
		return
	}
	msg := sends[0].Msg
	entries := msg.Len()
	for _, s := range sends {
		st.gossipSent++
		st.gossipEntries += entries
		if tracing {
			rc.Emit(obs.Event{Type: obs.EvInformSend, Peer: int(s.To), Object: -1,
				Trial: st.trial, Iteration: st.iter, Value: float64(entries)})
		}
		rc.Send(s.To, gossip, msg)
	}
}

// DistResult reports a distributed LB invocation from one rank's
// perspective; the imbalance fields, History, and the message totals
// are identical on every rank (they are produced by collectives).
type DistResult struct {
	InitialImbalance float64
	FinalImbalance   float64
	BestTrial        int
	BestIteration    int
	// Migrations and MigrationBytes count the objects this rank shipped
	// out while committing the chosen distribution, and their states'
	// wire-codec bytes (wire.PayloadSize).
	Migrations     int
	MigrationBytes int
	// History holds per-iteration accounting aggregated over all ranks —
	// the distributed equivalents of the synchronous engine's
	// Result.History rows, reduced with one mixed sum/max collective per
	// iteration.
	History []core.IterationStats
	// GossipMessages and TransferMessages total the balancer's own
	// active messages (all ranks, all trials): every gossip message of
	// the inform stages and every transfer proposal of the transfer
	// stages. Their sum equals the transport's user-kind message count
	// when the balancer is the only application traffic.
	GossipMessages   int
	TransferMessages int
	// ElapsedSeconds is this rank's wall-clock time inside the
	// invocation.
	ElapsedSeconds float64
}

// StripTiming returns a copy of the result with every wall-clock field
// zeroed, leaving only protocol-determined state. Two runs of the same
// seed and configuration must compare reflect.DeepEqual after
// StripTiming regardless of scheduling, fault plan, or transport — the
// equality the chaos suite and `make wire-smoke` enforce.
func (r DistResult) StripTiming() DistResult {
	r.ElapsedSeconds = 0
	r.History = append([]core.IterationStats(nil), r.History...)
	for i := range r.History {
		r.History[i].ElapsedSeconds = 0
	}
	return r
}

// openOps is the per-element combine of the reduce that opens an
// invocation — the load's max, min and sum in one round — and iterOps
// that of an iteration's statistics reduce: seven counters summed, then
// three values maximized. A watched job appends a load summary to both.
var (
	openOps = []amt.ReduceOp{amt.ReduceMax, amt.ReduceMin, amt.ReduceSum}
	iterOps = []amt.ReduceOp{
		amt.ReduceSum, amt.ReduceSum, amt.ReduceSum, amt.ReduceSum,
		amt.ReduceSum, amt.ReduceSum, amt.ReduceSum,
		amt.ReduceMax, amt.ReduceMax, amt.ReduceMax,
	}
)

// RunDistributed executes the full TemperedLB protocol on the calling
// rank: the statistics all-reduce, then Trials×Iterations of (gossip
// epoch, transfer epoch, imbalance all-reduce) over a virtual working
// set, and finally a commit epoch that migrates the real objects into
// the best distribution found (Algorithm 3's deferred transfers). All
// ranks must call it collectively with their local instrumented loads.
// A rank keeps its state, gossip state included, from its first
// invocation on; each trial's StartTrial hands it that invocation's cfg.
func RunDistributed(rc *amt.Context, h *Handlers, cfg core.Config, loads map[amt.ObjectID]float64) (DistResult, error) {
	if err := cfg.Validate(); err != nil {
		return DistResult{}, err
	}
	self := rc.Rank()
	n := rc.NumRanks()
	start := clock.Now()
	tr := rc.Tracer()

	// Frames ride the reduces the protocol takes anyway: when the job is
	// watched — a job-wide fact, so every rank widens the same reduces —
	// each carries the summary of the loads it describes (obs.LoadSummary:
	// at most 64 positional cells, Σl² and −min), and the one rank of each
	// watching node whose Stream is non-nil publishes what came back. An
	// unwatched run takes the same collectives at their bare widths.
	watched, stream := rc.Watched(), rc.Stream()
	summary := obs.NewLoadSummary(n)
	openWith, iterWith := openOps, iterOps
	if watched {
		openWith, iterWith = h.openWatched, h.iterWatched
	}

	// A rank's balancer state is built at its first invocation, so a
	// process pays only for the ranks it hosts and only once they balance.
	// Its generators are re-pointed at each trial's streams.
	st := h.st[self]
	if st == nil {
		st = &rankState{
			inform:  core.NewInformStateOn(h.table, self, core.SeededRNG(cfg.Seed)),
			xferRNG: core.SeededRNG(cfg.Seed),
			reduce:  make([]float64, 0, len(iterWith)),
		}
		h.st[self] = st
	}
	st.cfg = cfg

	// The whole gossip prologue is one fused collective round: the load
	// max and total (and the unused min) ride a single mixed-op vector
	// reduce instead of sequential scalar rounds.
	st.input.load(loads)
	ownLoad := st.input.sum()
	st.reduce = append(st.reduce[:0], ownLoad, ownLoad, ownLoad)
	if watched {
		st.reduce = summary.Append(st.reduce, int(self), ownLoad)
	}
	agg := rc.AllReduceMixed(st.reduce, openWith)
	maxLoad, total := agg[0], agg[2]
	ave := total / float64(n)
	res := DistResult{
		InitialImbalance: imbalance(maxLoad, ave),
	}
	res.FinalImbalance = res.InitialImbalance
	if tr != nil {
		rc.Emit(obs.Event{Type: obs.EvLBBegin, Peer: -1, Object: -1,
			Value: res.InitialImbalance})
	}
	entriesTotal := 0
	// best is the reduced summary of the distribution the commit epoch
	// will realize, kept by the publishing rank for the commit frame.
	var best []float64
	if stream != nil {
		best = agg[len(openOps):]
		publishFrame(rc, stream, &res, entriesTotal, best, total, obs.Snapshot{Phase: "init"})
	}
	if total == 0 {
		if tr != nil {
			rc.Emit(obs.Event{Type: obs.EvLBEnd, Peer: -1, Object: -1,
				Value: res.FinalImbalance, Dur: clock.Since(start)})
		}
		res.ElapsedSeconds = clock.Since(start).Seconds()
		return res, nil
	}

	res.History = make([]core.IterationStats, 0, cfg.Trials*cfg.Iterations)
	st.best.copyFrom(&st.input)
	migBefore, bytesBefore := rc.Stats[amt.Migrations].Load(), rc.Stats[amt.MigrationBytes].Load()

	for trial := 1; trial <= cfg.Trials; trial++ {
		st.virtual.copyFrom(&st.input) // Algorithm 3 line 3
		core.ReseedTransfer(st.xferRNG, cfg.Seed, trial, self)
		// The gossip state is started on each trial's Config and stream
		// the way the engine does it and reset at each iteration: the
		// previous iteration's epochs have quiesced by then, so no
		// in-flight message can observe a recycled knowledge buffer. The
		// RNG stream is continuous across a trial's iterations.
		st.inform.StartTrial(&st.cfg, trial)

		for iter := 1; iter <= cfg.Iterations; iter++ {
			iterStart := clock.Now()
			st.trial, st.iter = trial, iter
			st.gossipSent, st.gossipEntries = 0, 0
			if tr != nil {
				rc.Emit(obs.Event{Type: obs.EvIterBegin, Peer: -1, Object: -1,
					Trial: trial, Iteration: iter})
			}

			// Inform stage: asynchronous gossip under termination
			// detection — no synchronized rounds (§IV-B).
			st.inform.Reset()
			rc.Epoch(func() {
				sendFanOut(rc, h.gossip, st, st.inform.Begin(ave, st.virtual.sum()), tr != nil)
			})

			// Transfer stage: every overloaded rank works concurrently
			// with its gossip-stale knowledge.
			var xfers int
			var ts core.TransferStats
			overloaded, knowledge := 0.0, 0.0
			rc.Epoch(func() {
				load := st.virtual.sum()
				if load <= cfg.Threshold*ave {
					return
				}
				overloaded = 1
				kn := st.inform.Knowledge()
				knowledge = float64(kn.Len())
				// The proposals are backed by the scratch: it goes back to
				// the pool once they are sent.
				scr := h.scratch.Get().(*core.TransferScratch)
				defer h.scratch.Put(scr)
				props, tstats, _ := core.RunTransferScratch(self, st.virtual.taskList(), load, ave, kn, &st.cfg, st.xferRNG, nil, scr)
				ts = tstats
				for _, p := range props {
					m := st.virtual.cede(p.Task)
					if tr != nil {
						rc.Emit(obs.Event{Type: obs.EvTransferPropose, Peer: int(p.To),
							Object: int64(m.Obj), Trial: trial, Iteration: iter,
							Value: m.Load})
					}
					xfers++
					rc.Send(p.To, h.xfer, m)
				}
				if tr != nil && ts.Rejected > 0 {
					rc.Emit(obs.Event{Type: obs.EvTransferReject, Peer: -1, Object: -1,
						Trial: trial, Iteration: iter, Value: float64(ts.Rejected)})
				}
				if tr != nil && ts.NoCandidate > 0 {
					rc.Emit(obs.Event{Type: obs.EvTransferNoCandidate, Peer: -1, Object: -1,
						Trial: trial, Iteration: iter, Value: float64(ts.NoCandidate)})
				}
			})

			// Evaluate the proposed distribution (Algorithm 3 line 9) and
			// aggregate the iteration's accounting in one mixed-op reduce:
			// seven sums, then three maxes. KnowledgeMin rides a max
			// negated (ranks that were not overloaded contribute -Inf,
			// i.e. they don't constrain the minimum); the last element is
			// this rank's time from iteration start to this reduce.
			negKnow := math.Inf(-1)
			if overloaded > 0 {
				negKnow = -knowledge
			}
			curLoad := st.virtual.sum()
			st.reduce = append(st.reduce[:0],
				float64(st.gossipSent), float64(st.gossipEntries),
				float64(xfers), float64(ts.Rejected), float64(ts.NoCandidate),
				overloaded, overloaded*knowledge,
				curLoad, negKnow, clock.Since(iterStart).Seconds())
			if watched {
				st.reduce = summary.Append(st.reduce, int(self), curLoad)
			}
			agg := rc.AllReduceMixed(st.reduce, iterWith)
			sums, maxes := agg[:7], agg[7:10]

			iterStat := core.IterationStats{
				Trial: trial, Iteration: iter,
				GossipMessages: int(sums[0]), GossipEntries: int(sums[1]),
				Transfers: int(sums[2]), Rejected: int(sums[3]), NoCandidate: int(sums[4]),
				Imbalance:      imbalance(maxes[0], ave),
				ElapsedSeconds: maxes[2],
			}
			if sums[5] > 0 {
				iterStat.KnowledgeAvg = sums[6] / sums[5]
				iterStat.KnowledgeMin = int(-maxes[1])
			}
			res.History = append(res.History, iterStat)
			res.GossipMessages += iterStat.GossipMessages
			res.TransferMessages += iterStat.Transfers
			if tr != nil {
				rc.Emit(obs.Event{Type: obs.EvIterEnd, Peer: -1, Object: -1,
					Trial: trial, Iteration: iter, Value: iterStat.Imbalance,
					Dur: clock.Since(iterStart)})
			}
			improved := iterStat.Imbalance < res.FinalImbalance
			if improved {
				res.FinalImbalance = iterStat.Imbalance
				res.BestTrial, res.BestIteration = trial, iter
				st.best.copyFrom(&st.virtual)
			}
			entriesTotal += iterStat.GossipEntries
			if stream != nil {
				reduced := agg[len(iterOps):]
				if improved {
					best = reduced
				}
				publishFrame(rc, stream, &res, entriesTotal, reduced, total, obs.Snapshot{
					Phase: "iter", Trial: trial, Iteration: iter,
					IterMs: maxes[2] * 1e3,
				})
			}
		}
	}

	// Commit (Algorithm 3 line 13): the chosen owner of each task pulls
	// it from wherever it actually lives; routing and forwarding handle
	// in-flight races, and the epoch ends only after every migration and
	// location update has landed.
	rc.Epoch(func() {
		// Fetch in ascending object order — the order the best set keeps —
		// so the commit traffic is identical run to run.
		for _, obj := range st.best.objects() {
			if !rc.HasObject(obj) {
				rc.SendObject(obj, h.fetch, self)
			}
		}
	})
	res.Migrations = int(rc.Stats[amt.Migrations].Load() - migBefore)
	res.MigrationBytes = int(rc.Stats[amt.MigrationBytes].Load() - bytesBefore)
	if watched {
		// The one collective a watcher adds: the commit frame's migration
		// total. Its loads are the best iteration's, already reduced.
		migs := rc.AllReduce(float64(res.Migrations), amt.ReduceSum)
		if stream != nil {
			publishFrame(rc, stream, &res, entriesTotal, best, total, obs.Snapshot{
				Phase: "commit", Trial: res.BestTrial, Iteration: res.BestIteration,
				Migrations: int64(migs),
			})
		}
	}
	res.ElapsedSeconds = clock.Since(start).Seconds()
	if tr != nil {
		rc.Emit(obs.Event{Type: obs.EvLBEnd, Peer: -1, Object: -1,
			Value: res.FinalImbalance, Dur: clock.Since(start)})
	}
	return res, nil
}

// publishFrame fills a frame's loads and load statistics from a reduced
// load summary and the job's total load, stamps the run-wide counters
// onto it and publishes it. Only a node's publishing rank calls it. The
// transport, fault and wire totals are the node's (amt.NodeStats), so the
// frame describes the node's whole run; collectives and epochs are the
// publishing rank's own, which every rank of the job shares.
func publishFrame(rc *amt.Context, stream *obs.Stream, res *DistResult, entries int, reduced []float64, total float64, f obs.Snapshot) {
	f.Source = "distributed"
	obs.NewLoadSummary(rc.NumRanks()).Fill(&f, reduced, total)
	f.GossipMsgs = int64(res.GossipMessages)
	f.GossipEntries = int64(entries)
	f.TransferMsgs = int64(res.TransferMessages)
	ns := rc.NodeStats()
	f.Msgs, f.Bytes = ns.Transport.Sent.Total(), ns.Transport.Bytes.Total()
	fs := ns.Faults()
	f.Dropped, f.Duplicated = fs.Dropped, fs.Duplicated
	f.Retries, f.DupDrops = fs.Retries, fs.DupDrops
	f.Collectives = rc.Stats[amt.Collectives].Load()
	f.Epochs = rc.Stats[amt.EpochsRun].Load()
	f.WireBytesOut, f.WireBytesIn, f.WirePeers = ns.Wire.BytesOut, ns.Wire.BytesIn, ns.Wire.Peers
	stream.Publish(f)
}

func imbalance(max, ave float64) float64 {
	if ave == 0 {
		return 0
	}
	return max/ave - 1
}
