package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"time"

	"temperedlb"
	"temperedlb/internal/amt"
	"temperedlb/internal/comm"
	"temperedlb/internal/comm/wire"
	"temperedlb/internal/core"
	"temperedlb/internal/lbaf"
	"temperedlb/internal/obs"
	"temperedlb/internal/serve"
	"temperedlb/internal/termination"
	"temperedlb/internal/workload"
)

// A probe calls one layer's public functions in isolation and times the
// call from outside. Probes give each layer a number of its own, so a
// change in an end-to-end metric can be traced to the layer that moved.
// Every random input derives from the benchmark seed.

// sink keeps results alive so the compiler cannot drop a probed call.
var sink any

// perCall times reps calls of f as one stretch and returns the mean in
// nanoseconds; for calls too short to time one by one.
func perCall(reps int, f func()) float64 {
	start := time.Now()
	for i := 0; i < reps; i++ {
		f()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps)
}

// medianOf times each of reps calls of f and returns the median in
// seconds. before, when not nil, prepares a call outside its timing.
func medianOf(reps int, before, f func()) float64 {
	d := make([]float64, reps)
	for i := range d {
		if before != nil {
			before()
		}
		start := time.Now()
		f()
		d[i] = time.Since(start).Seconds()
	}
	return median(d)
}

// runProbes runs every probe and returns its metrics. progress is called
// between groups so the watchdog sees the run is alive.
func runProbes(seed int64, progress func()) (map[string]float64, error) {
	m := map[string]float64{}
	groups := []func(int64, map[string]float64) error{
		probeCore, probeRuntime, probeReliable, probeTermination,
		probeComm, probeCodec, probeSockets, probeServe, probeObs,
	}
	for _, g := range groups {
		if err := g(seed, m); err != nil {
			return m, err
		}
		progress()
	}
	return m, nil
}

func probeCore(seed int64, m map[string]float64) error {
	const ranks = 4096
	rng := rand.New(rand.NewSource(seed))
	cfg := core.Tempered()

	// One novel 256-entry gossip message arriving at a rank of a
	// 4096-rank job: merge, then fan the grown knowledge out.
	entries := make([]core.RankLoad, 256)
	for i, r := range rng.Perm(ranks)[:256] {
		entries[i] = core.RankLoad{Rank: core.Rank(r), Load: rng.Float64()}
	}
	st := core.NewInformState(0, ranks, &cfg, core.SeededRNG(seed, 1))
	msg := core.InformMsg{Round: 1, Entries: entries}
	m["core.inform_receive_ns"] = perCall(2000, func() {
		st.Reset()
		sends, _ := st.Receive(msg)
		sink = sends
	})

	// One transfer stage of an overloaded rank: 625 tasks (10^4 over 16
	// ranks) against knowledge of every other rank.
	tasks := make([]core.Task, 625)
	load := 0.0
	for i := range tasks {
		tasks[i] = core.Task{ID: core.TaskID(i), Load: 0.1 + 0.8*rng.Float64()}
		load += tasks[i].Load
	}
	ave := load * 16 / ranks
	know := core.NewKnowledge(ranks)
	var scratch core.TransferScratch
	xrng := core.SeededRNG(seed, 2)
	m["core.transfer_stage_us"] = 1e6 * medianOf(20, func() {
		know.Reset()
		for r := 1; r < ranks; r++ {
			know.Add(core.Rank(r), 0)
		}
		know.Canonicalize()
	}, func() {
		props, _, _ := core.RunTransferScratch(0, tasks, load, ave, know, &cfg, xrng, nil, &scratch)
		sink = props
	})

	big := make([]core.Task, 10_000)
	total := 0.0
	for i := range big {
		big[i] = core.Task{ID: core.TaskID(i), Load: 10 * rng.Float64()}
		total += big[i].Load
	}
	m["core.order_10k_us"] = 1e6 * medianOf(20, nil, func() {
		sink = core.OrderTasks(big, total/400, total, core.OrderFewestMigrations)
	})

	// The plain single-threaded baseline of workload A's problem: the
	// first two rows of the §V-D iteration table on the same case through
	// the synchronous engine. Its trajectory must fall as the paper's does.
	vd := core.Grapevine()
	vd.Iterations = 2
	vd.Criterion, vd.CMF, vd.RecomputeCMF = core.CriterionRelaxed, core.CMFModified, true
	vd.Seed = seed
	var table lbaf.Table
	var err error
	m["core.engine_vd_s"] = medianOf(1, nil, func() {
		table, err = lbaf.RunIterationTable("§V-D", workload.VBCase(seed), vd)
	})
	if err != nil {
		return err
	}
	if last := table.Rows[len(table.Rows)-1].Imbalance; last > table.InitialImbalance/4 {
		return fmt.Errorf("core.engine_vd_s: §V-D table ends at imbalance %.3f from %.3f", last, table.InitialImbalance)
	}
	return nil
}

// gate is a reusable barrier over goroutines, outside the runtime under
// test: every rank waits at it before a timed collective so the
// collective starts from an idle runtime, and after it so the time can
// run to the last rank's return.
type gate struct {
	mu      sync.Mutex
	n, here int
	release chan struct{}
}

func newGate(n int) *gate { return &gate{n: n, release: make(chan struct{})} }

func (g *gate) wait() {
	g.mu.Lock()
	g.here++
	if g.here == g.n {
		g.here = 0
		close(g.release)
		g.release = make(chan struct{})
		g.mu.Unlock()
		return
	}
	ch := g.release
	g.mu.Unlock()
	<-ch
}

// collectiveProbe times reps lone calls of f on every rank of a running
// runtime: from the release of the gate to the last rank's return.
// Every rank must call it with the same arguments; rank 0's return value
// is the median in microseconds.
func collectiveProbe(rc *temperedlb.RankContext, g *gate, ends []time.Time, reps int, f func()) float64 {
	var d []float64
	for i := 0; i < reps; i++ {
		g.wait()
		start := time.Now()
		f()
		ends[rc.Rank()] = time.Now()
		g.wait()
		if rc.Rank() == 0 {
			last := ends[0]
			for _, e := range ends {
				if e.After(last) {
					last = e
				}
			}
			d = append(d, last.Sub(start).Seconds())
		}
	}
	return 1e6 * median(d)
}

func probeRuntime(_ int64, m map[string]float64) error {
	vec := make([]float64, 8)
	for _, n := range []int{64, 1024, 4096} {
		g, ends := newGate(n), make([]time.Time, n)
		out := map[string]float64{} // written by rank 0 only
		temperedlb.NewRuntime(n).Run(func(rc *temperedlb.RankContext) {
			rc.Barrier()
			us := collectiveProbe(rc, g, ends, 30, func() { rc.AllReduceVec(vec, temperedlb.ReduceSum) })
			var gather, barrier, epoch float64
			if n >= 1024 {
				gather = collectiveProbe(rc, g, ends, 5, func() { rc.AllGather(1) })
				epoch = collectiveProbe(rc, g, ends, 10, func() { rc.Epoch(func() {}) })
			}
			if n == 4096 {
				barrier = collectiveProbe(rc, g, ends, 30, rc.Barrier)
			}
			if rc.Rank() == 0 {
				out[fmt.Sprintf("amt.allreduce_vec_us.%d", n)] = us
				if n >= 1024 {
					out[fmt.Sprintf("amt.allgather_us.%d", n)] = gather
					out[fmt.Sprintf("termination.empty_epoch_us.%d", n)] = epoch
				}
				if n == 4096 {
					out["amt.barrier_us.4096"] = barrier
				}
			}
		})
		for k, v := range out {
			m[k] = v
		}
	}

	// Runtime start: construction, 4096 rank goroutines and contexts, and
	// the first barrier, as rank 0 sees it.
	m["amt.runtime_start_ms.4096"] = 1e3 * medianOf(3, nil, func() {
		temperedlb.NewRuntime(4096).Run(func(rc *temperedlb.RankContext) { rc.Barrier() })
	})

	// 1000 objects change rank in one epoch, back and forth.
	var perObject []float64
	temperedlb.NewRuntime(2).Run(func(rc *temperedlb.RankContext) {
		if rc.Rank() == 0 {
			for i := 0; i < 1000; i++ {
				rc.CreateObject(float64(i))
			}
		}
		other := 1 - rc.Rank()
		for rep := 0; rep < 20; rep++ {
			rc.Barrier()
			start := time.Now()
			rc.Epoch(func() {
				for _, id := range rc.LocalObjects() {
					rc.Migrate(id, other)
				}
			})
			if rc.Rank() == 0 {
				perObject = append(perObject, time.Since(start).Seconds()/1000)
			}
		}
	})
	m["amt.migrate_us"] = 1e6 * median(perObject)
	return nil
}

// probeReliable prices the ack/retry layer: the same 256-rank op with
// and without a lossy, duplicating transport. The results must be equal.
func probeReliable(seed int64, m map[string]float64) error {
	w := workloadByName(wlB)
	in, err := w.input(seed, 0)
	if err != nil {
		return err
	}
	var clean, faulted []float64
	for i := 0; i < 3; i++ {
		a, err := w.runOp(in, attach{memory: true}, 0)
		if err != nil {
			return err
		}
		b, err := w.runOp(in, attach{memory: true, faults: "seed=9,drop=0.01,dup=0.01"}, 0)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(a.dist.StripTiming(), b.dist.StripTiming()) || a.migrations != b.migrations {
			return fmt.Errorf("amt.reliable_overhead_ratio: faulted result differs from fault-free")
		}
		clean, faulted = append(clean, a.wallS), append(faulted, b.wallS)
	}
	m["amt.reliable_overhead_ratio"] = median(faulted) / median(clean)
	return nil
}

func probeTermination(_ int64, m map[string]float64) error {
	const n = 1024
	ring := make([]*termination.Detector, n)
	for i := range ring {
		ring[i] = termination.New(i, n)
	}
	steps := 0
	start := time.Now()
	for epoch := 0; epoch < 500; epoch++ {
		for cur := 0; ; {
			t, next, send := ring[cur].TryHandOff()
			if !send {
				break
			}
			ring[next].OnToken(t)
			cur = next
			steps++
		}
		if !ring[0].Terminated() {
			return fmt.Errorf("termination.detector_ns: idle ring did not terminate")
		}
		for _, d := range ring {
			d.Reset()
		}
	}
	m["termination.detector_ns"] = float64(time.Since(start).Nanoseconds()) / float64(steps)
	return nil
}

// probeComm streams messages through the in-memory network: one or two
// producers, one consumer draining with RecvBatch.
func probeComm(_ int64, m map[string]float64) error {
	const total = 1_000_000
	for _, producers := range []int{1, 2} {
		nw := comm.NewNetwork(producers + 1)
		start := time.Now()
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(from int) {
				defer wg.Done()
				for i := 0; i < total/producers; i++ {
					nw.Send(comm.Message{From: from, To: 0, Data: i})
				}
			}(p + 1)
		}
		var buf []comm.Message
		for got := 0; got < total; {
			buf = nw.RecvBatch(0, buf[:0])
			if len(buf) == 0 {
				first, ok := nw.RecvWait(0)
				if !ok {
					return fmt.Errorf("comm probe: network closed")
				}
				buf = append(buf, first)
			}
			got += len(buf)
		}
		ns := float64(time.Since(start).Nanoseconds()) / total
		wg.Wait()
		nw.Close()
		if producers == 1 {
			m["comm.send_recv_ns"] = ns
		} else {
			m["comm.fanin_ns"] = ns
		}
	}
	return nil
}

// frameBody strips the length word and the version/type header the
// decoder does not take.
func frameBody(frame []byte) []byte { return frame[6:] }

func probeCodec(seed int64, m map[string]float64) error {
	rng := rand.New(rand.NewSource(seed))
	for _, size := range []int{1, 1024} {
		entries := make([]core.RankLoad, size)
		for i := range entries {
			entries[i] = core.RankLoad{Rank: core.Rank(i), Load: rng.Float64()}
		}
		msg := comm.Message{From: 1, To: 2, Handler: 1, Seq: 7, Data: core.InformMsg{Round: 1, Entries: entries}}
		var frame []byte
		reps := 2_000_000 / (size + 9)
		enc := perCall(reps, func() { frame = wire.AppendMessage(frame[:0], msg) })
		var derr error
		dec := perCall(reps, func() {
			var got comm.Message
			got, derr = wire.DecodeMessage(frameBody(frame), 4)
			sink = got
		})
		if derr != nil {
			return fmt.Errorf("wire codec probe: %w", derr)
		}
		if size == 1 {
			m["wire.encode_ns.1"], m["wire.decode_ns.1"] = enc, dec
		} else {
			mb := float64(len(frame)) / 1e6
			m["wire.encode_mb_s.1k"], m["wire.decode_mb_s.1k"] = mb/(enc/1e9), mb/(dec/1e9)
		}
	}
	return nil
}

func probeSockets(seed int64, m map[string]float64) error {
	for _, network := range []string{"unix", "tcp"} {
		if err := probeSocketPair(network, uint64(seed), m); err != nil {
			return fmt.Errorf("wire probe over %s: %w", network, err)
		}
	}

	var open *wire.Cluster
	var err error
	m["wire.cluster_connect_ms.unix"] = 1e3 * medianOf(10, func() {
		if open != nil {
			open.Close()
		}
	}, func() {
		if err == nil {
			open, err = wire.NewCluster("unix", 2, 2, uint64(seed))
		}
	})
	if err != nil {
		return fmt.Errorf("wire connect probe: %w", err)
	}
	open.Close()
	return nil
}

// probeSocketPair times round trips between the two nodes of a 2-rank
// cluster and, over unix sockets, a one-way burst.
func probeSocketPair(network string, jobID uint64, m map[string]float64) error {
	c, err := wire.NewCluster(network, 2, 2, jobID)
	if err != nil {
		return err
	}
	defer c.Close()
	a, b := c.Transports[0], c.Transports[1]
	ping := comm.Message{From: 0, To: 1, Data: core.InformMsg{Round: 1}}
	pong := comm.Message{From: 1, To: 0, Data: core.InformMsg{Round: 2}}

	const trips = 2000
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		for i := 0; i < trips; i++ {
			if _, ok := b.RecvWait(1); !ok {
				return
			}
			b.Send(pong)
		}
	}()
	rtt := make([]float64, trips)
	for i := range rtt {
		start := time.Now()
		a.Send(ping)
		if _, ok := a.RecvWait(0); !ok {
			return fmt.Errorf("transport closed: %v", a.Err())
		}
		rtt[i] = time.Since(start).Seconds()
	}
	<-echoed
	m["wire.pingpong_us."+network] = 1e6 * median(rtt)
	if network != "unix" {
		return nil
	}

	// One way, as fast as the writer queue drains; the burst stays under
	// the queue's soft cap.
	const burst = 100_000
	start := time.Now()
	for i := 0; i < burst; i++ {
		a.Send(ping)
	}
	for i := 0; i < burst; i++ {
		if _, ok := b.RecvWait(1); !ok {
			return fmt.Errorf("transport closed mid-stream: %v", b.Err())
		}
	}
	m["wire.stream_msgs_s.unix"] = burst / time.Since(start).Seconds()
	return nil
}

func probeServe(seed int64, m map[string]float64) error {
	// What a rank pays per phase between running its tasks and (maybe)
	// invoking the balancer: fold a 256-object observation into the
	// load model, sum the predictions, ask the forecast trigger.
	model := amt.NewLoadModel(0.5)
	model.SetTrend(0.3)
	ids := make([]amt.ObjectID, 256)
	for j := range ids {
		ids[j] = amt.MakeObjectID(core.Rank(j%16), int64(j+1))
	}
	stats := amt.PhaseStats{Loads: make(map[amt.ObjectID]float64, len(ids))}
	trig := &serve.Forecast{}
	phase := 0
	m["serve.trigger_eval_us"] = perCall(2000, func() {
		stats.Total = 0
		for j, id := range ids {
			l := 1 + float64((j+phase)%7)
			stats.Loads[id] = l
			stats.Total += l
		}
		model.Observe(stats)
		pred := 0.0
		for _, id := range model.IDs() {
			pred += model.Predict(id)
		}
		sink = trig.Decide(serve.Summary{
			Phase: phase, Max: stats.Total * 1.2, Avg: stats.Total,
			PredMax: pred * 1.2, PredAvg: pred, LBCost: 1e12,
		})
		phase++
	}) / 1e3

	c := workloadByName(wlC)
	var err error
	m["serve.scenario_gen_us"] = 1e6 * medianOf(10, nil, func() {
		sink, err = serve.NewScenario(serve.Spec{Kind: serve.KindBurst, Ranks: c.Ranks, Phases: c.Phases, Items: c.Items, Seed: seed})
	})
	return err
}

func probeObs(_ int64, m map[string]float64) error {
	rec := obs.NewRecorder()
	ev := obs.Event{Type: obs.EvHandler, Rank: 3, Peer: 1, Object: -1, Name: "lb.gossip", Dur: time.Microsecond}
	m["obs.emit_ns"] = perCall(200_000, func() { rec.Emit(ev) })

	// One frame of a 1024-rank run published to a stream with one
	// subscriber that keeps up.
	stream := obs.NewStream(0)
	sub := stream.Subscribe(64)
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-sub.Frames():
			case <-stop:
				return
			}
		}
	}()
	frame := obs.Snapshot{Source: "distributed", Phase: "iter", Loads: make([]float64, 1024)}
	for i := range frame.Loads {
		frame.Loads[i] = float64(i % 17)
	}
	m["obs.stream_publish_us.1024"] = perCall(5000, func() {
		f := frame
		f.FillLoadStats()
		stream.Publish(f)
	}) / 1e3
	close(stop)
	<-stopped
	stream.Unsubscribe(sub)
	return nil
}
