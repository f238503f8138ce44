package tempered

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"

	"temperedlb/internal/amt"
	"temperedlb/internal/comm"
	"temperedlb/internal/obs"
)

// TestDistributedTracingAcceptance is the observability acceptance run:
// RunDistributed on 16 ranks with the full stack attached — tracer,
// registry and stream — must produce (a) a Chrome trace with one named
// track per rank and a rich event vocabulary, (b) per-iteration History
// identical on every rank, (c) balancer-level gossip+transfer message
// counts that exactly match the transport's user-kind totals, (d) the
// tree's collective accounting, and (e) one value per counted fact across
// the registry, the recorded events and the last frame. It runs fault-free
// and under a plan that drops and duplicates.
func TestDistributedTracingAcceptance(t *testing.T) {
	t.Run("fault-free", func(t *testing.T) { testTracingAcceptance(t, comm.FaultSpec{}) })
	t.Run("faulted", func(t *testing.T) {
		testTracingAcceptance(t, comm.FaultSpec{Seed: 3, Drop: 0.05, Dup: 0.05})
	})
}

func testTracingAcceptance(t *testing.T, faults comm.FaultSpec) {
	const nRanks, hot, objsPerHot = 16, 2, 24
	rec := obs.NewRecorder()
	stream := obs.NewStream(0)
	rt := amt.New(nRanks, amt.WithTracer(rec), amt.WithMetrics(), amt.WithStream(stream))
	if err := rt.SetFaults(faults); err != nil {
		t.Fatal(err)
	}
	h := RegisterHandlers(rt, 100)
	results := make([]DistResult, nRanks)
	var mu sync.Mutex

	rt.Run(func(rc *amt.Context) {
		rng := rand.New(rand.NewSource(int64(rc.Rank()) + 11))
		loads := map[amt.ObjectID]float64{}
		if int(rc.Rank()) < hot {
			for i := 0; i < objsPerHot; i++ {
				l := 0.2 + rng.Float64()
				loads[rc.CreateObject(&colorState{Load: l})] = l
			}
		}
		rc.Barrier()
		res, err := RunDistributed(rc, h, distConfig(), loads)
		if err != nil {
			t.Errorf("rank %d: %v", rc.Rank(), err)
			return
		}
		mu.Lock()
		results[rc.Rank()] = res
		mu.Unlock()
	})

	// (c) Message accounting: the balancer is the only source of
	// user-kind traffic here, so its own counts must reconcile exactly
	// with the transport — which under a fault plan also carries the
	// retransmissions.
	res := results[0]
	m := rt.Metrics()
	user := m.Counter(`comm_messages_total{kind="user"}`).Value()
	if got := int64(res.GossipMessages + res.TransferMessages); got != user && faults.Empty() || got > user {
		t.Errorf("balancer counted %d gossip + %d transfer = %d user messages, transport sent %d",
			res.GossipMessages, res.TransferMessages, got, user)
	}
	if res.GossipMessages == 0 || res.TransferMessages == 0 {
		t.Errorf("degenerate accounting: gossip %d, transfers %d",
			res.GossipMessages, res.TransferMessages)
	}

	// (b) History: aggregated via collectives, so identical everywhere.
	cfg := distConfig()
	if len(res.History) != cfg.Trials*cfg.Iterations {
		t.Fatalf("history rows = %d, want %d", len(res.History), cfg.Trials*cfg.Iterations)
	}
	gSum, xSum := 0, 0
	for _, row := range res.History {
		gSum += row.GossipMessages
		xSum += row.Transfers
		if row.ElapsedSeconds <= 0 {
			t.Errorf("trial %d iter %d: elapsed %g", row.Trial, row.Iteration, row.ElapsedSeconds)
		}
	}
	if gSum != res.GossipMessages || xSum != res.TransferMessages {
		t.Errorf("history sums %d/%d != totals %d/%d",
			gSum, xSum, res.GossipMessages, res.TransferMessages)
	}
	for r := 1; r < nRanks; r++ {
		if len(results[r].History) != len(res.History) {
			t.Fatalf("rank %d history length differs", r)
		}
		for i := range res.History {
			if results[r].History[i] != res.History[i] {
				t.Errorf("rank %d history[%d] = %+v, rank 0 has %+v",
					r, i, results[r].History[i], res.History[i])
			}
		}
		if results[r].ElapsedSeconds <= 0 {
			t.Errorf("rank %d elapsed %g", r, results[r].ElapsedSeconds)
		}
	}

	// (a) Trace structure: every rank emitted events of a rich
	// vocabulary, and the Chrome export names one track per rank.
	events := rec.Events()
	types := map[obs.EventType]bool{}
	ranks := map[int]bool{}
	for _, e := range events {
		types[e.Type] = true
		ranks[e.Rank] = true
	}
	if len(ranks) != nRanks {
		t.Errorf("trace covers %d ranks, want %d", len(ranks), nRanks)
	}
	if len(types) < 6 {
		t.Errorf("trace has %d distinct event types, want >= 6: %v", len(types), types)
	}
	for _, must := range []obs.EventType{
		obs.EvEpochOpen, obs.EvEpochClose, obs.EvInformSend, obs.EvInformRecv,
		obs.EvTransferPropose, obs.EvTokenRound, obs.EvMigration,
		obs.EvCollective, obs.EvIterBegin, obs.EvIterEnd, obs.EvLBBegin, obs.EvLBEnd,
	} {
		if !types[must] {
			t.Errorf("trace missing %v events", must)
		}
	}

	// (d) Collective accounting on the k-ary tree: the gossip prologue is
	// exactly one collective round per rank (the fused summary reduce),
	// each iteration adds exactly one mixed sum/max reduce, and no rank ever
	// sends more than fanout·ceil(log_fanout P) messages per collective —
	// the scaling contract that replaced the star's 2(P−1) on rank 0.
	fanout := rt.Fanout()
	bound := 0
	for p := 1; p < nRanks; p *= fanout {
		bound += fanout
	}
	perRank := map[int]int{}
	mixed := map[int]int{}
	for _, e := range events {
		if e.Type != obs.EvCollective {
			continue
		}
		perRank[e.Rank]++
		if e.Name == "allreduce_mixed" {
			mixed[e.Rank]++
		}
		if int(e.Value) > bound {
			t.Errorf("rank %d sent %g messages in %q, tree bound is %d",
				e.Rank, e.Value, e.Name, bound)
		}
		if e.Fanout != fanout || e.Depth < 1 {
			t.Errorf("collective event geometry: fanout %d depth %d", e.Fanout, e.Depth)
		}
	}
	// One explicit barrier before the LB call, then mixed-op reduces: one
	// prologue round and one per iteration; the attached stream adds the
	// commit frame's migration total.
	wantMixed := 1 + cfg.Trials*cfg.Iterations
	wantColl := 1 + wantMixed + 1
	for r := 0; r < nRanks; r++ {
		if perRank[r] != wantColl {
			t.Errorf("rank %d ran %d collectives, want %d", r, perRank[r], wantColl)
		}
		if mixed[r] != wantMixed {
			t.Errorf("rank %d ran %d mixed-op reduces, want %d", r, mixed[r], wantMixed)
		}
	}

	// (e) One value per fact. Rank counts: registry == recorded events, and
	// the commit frame carries the same numbers — everything but the
	// dup-drop count is final by then (no counted message is sent after the
	// commit epoch; a redundant copy may still be discarded later), and its
	// collectives and epochs are one rank's, the same on every rank.
	byType := map[obs.EventType]int64{}
	sumValue := map[obs.EventType]float64{}
	var migrationBytes int64
	for _, e := range events {
		byType[e.Type]++
		sumValue[e.Type] += e.Value
		if e.Type == obs.EvMigration {
			migrationBytes += int64(e.Bytes)
		}
	}
	frames := stream.Frames()
	last := frames[len(frames)-1]
	if last.Phase != "commit" {
		t.Fatalf("last frame is %q, want the commit frame", last.Phase)
	}
	for _, fact := range []struct {
		family string
		events int64
		frame  int64 // -1: the frame does not carry it
	}{
		{"amt_handler_invocations_total", byType[obs.EvHandler], -1},
		{"amt_epochs_total", byType[obs.EvEpochClose], nRanks * last.Epochs},
		{"termination_token_rounds_total", int64(sumValue[obs.EvEpochClose]), -1},
		{"amt_migrations_total", byType[obs.EvMigration], last.Migrations},
		{"amt_migration_bytes_total", migrationBytes, -1},
		{"amt_collectives_total", byType[obs.EvCollective], nRanks * last.Collectives},
		{"amt_collective_messages_total", int64(sumValue[obs.EvCollective]), -1},
		{"amt_retries_total", byType[obs.EvRetry], last.Retries},
		{"amt_duplicates_dropped_total", byType[obs.EvDupDrop], -1},
	} {
		reg := m.Counter(fact.family).Value()
		if reg != fact.events || fact.frame >= 0 && reg != fact.frame {
			t.Errorf("%s: registry %d, recorded events %d, commit frame %d", fact.family, reg, fact.events, fact.frame)
		}
	}
	// Transport counts: registry == FaultStats == frame for what the fault
	// plan did; the frame's message and byte totals stop where it was
	// published, the down-sweep of the last collective still to come.
	st := rt.FaultStats()
	if last.Dropped != st.Dropped || last.Duplicated != st.Duplicated || last.DupDrops > st.DupDrops {
		t.Errorf("commit frame: %d dropped, %d duplicated, %d dup-drops; FaultStats %+v",
			last.Dropped, last.Duplicated, last.DupDrops, st)
	}
	var dropped, duplicated int64
	for _, kind := range []string{"user", "object", "migrate", "locupdate"} { // the kinds a plan may lose
		dropped += m.Counter(obs.LabeledName("comm_dropped_total", "kind", kind)).Value()
		duplicated += m.Counter(obs.LabeledName("comm_duplicated_total", "kind", kind)).Value()
	}
	if dropped != st.Dropped || duplicated != st.Duplicated {
		t.Errorf("registry: %d dropped, %d duplicated over the counted kinds; FaultStats %+v", dropped, duplicated, st)
	}
	sent, sentBytes := m.Counter("comm_messages_all_total").Value(), m.Counter("comm_bytes_all_total").Value()
	if sent != rt.TotalMessages() || last.Msgs <= 0 || last.Msgs > sent || last.Bytes <= 0 || last.Bytes > sentBytes {
		t.Errorf("registry %d messages / %d bytes, TotalMessages %d, commit frame %d / %d",
			sent, sentBytes, rt.TotalMessages(), last.Msgs, last.Bytes)
	}
	if lossy := st.Dropped > 0 && st.Duplicated > 0 && st.Retries > 0 && st.DupDrops > 0; lossy == faults.Empty() {
		t.Errorf("fault plan %v, FaultStats %+v", faults, st)
	}

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	tracks := map[int]string{}
	for _, ce := range parsed.TraceEvents {
		if ce.Ph == "M" {
			tracks[ce.TID], _ = ce.Args["name"].(string)
		}
	}
	if len(tracks) != nRanks {
		t.Errorf("chrome trace has %d named tracks, want %d", len(tracks), nRanks)
	}
	for tid, name := range tracks {
		if name == "" {
			t.Errorf("track %d unnamed", tid)
		}
	}
}

// TestDistributedStatsMatchSyncShape checks the distributed History rows
// carry the same accounting fields the synchronous engine populates,
// with values in plausible relation (gossip entries >= messages when
// payloads are non-empty, knowledge min <= avg).
func TestDistributedStatsMatchSyncShape(t *testing.T) {
	results, _, _ := runDistributedCase(t, 12, 2, 40, distConfig())
	sawOverload := false
	for _, row := range results[0].History {
		if row.GossipMessages > 0 && row.GossipEntries < row.GossipMessages {
			t.Errorf("trial %d iter %d: %d entries across %d messages",
				row.Trial, row.Iteration, row.GossipEntries, row.GossipMessages)
		}
		if row.KnowledgeAvg > 0 {
			sawOverload = true
			if float64(row.KnowledgeMin) > row.KnowledgeAvg {
				t.Errorf("trial %d iter %d: knowledge min %d > avg %g",
					row.Trial, row.Iteration, row.KnowledgeMin, row.KnowledgeAvg)
			}
		}
		if rr := row.RejectionRate(); rr < 0 || rr > 100 {
			t.Errorf("rejection rate %g out of range", rr)
		}
	}
	if !sawOverload {
		t.Error("no iteration recorded knowledge stats on a clustered workload")
	}
}

// TestDistributedUntracedStatsStillAggregate pins that History and the
// message totals are produced by the collectives, not by the tracer:
// they must be present with observability fully disabled.
func TestDistributedUntracedStatsStillAggregate(t *testing.T) {
	results, _, _ := runDistributedCase(t, 8, 1, 32, distConfig())
	res := results[0]
	if len(res.History) == 0 || res.GossipMessages == 0 {
		t.Fatalf("stats absent without tracer: %+v", res)
	}
	for r := 1; r < len(results); r++ {
		if results[r].GossipMessages != res.GossipMessages {
			t.Errorf("rank %d gossip total %d != %d", r, results[r].GossipMessages, res.GossipMessages)
		}
	}
}
