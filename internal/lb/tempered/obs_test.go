package tempered

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"

	"temperedlb/internal/amt"
	"temperedlb/internal/obs"
)

// TestDistributedTracingAcceptance is the observability acceptance run:
// RunDistributed on 16 ranks with the full stack attached must produce
// (a) a Chrome trace with one named track per rank and a rich event
// vocabulary, (b) per-iteration History identical on every rank, and
// (c) balancer-level gossip+transfer message counts that exactly match
// the transport's user-kind totals.
func TestDistributedTracingAcceptance(t *testing.T) {
	const nRanks, hot, objsPerHot = 16, 2, 24
	rec := obs.NewRecorder()
	rt := amt.New(nRanks, amt.WithTracer(rec), amt.WithMetrics())
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
	// with the transport.
	res := results[0]
	user := rt.Metrics().Counter(`comm_messages_total{kind="user"}`).Value()
	if got := int64(res.GossipMessages + res.TransferMessages); got != user {
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
	// One explicit barrier before the LB call, then mixed-op reduces
	// only: one prologue round and one per iteration.
	wantMixed := 1 + cfg.Trials*cfg.Iterations
	wantColl := 1 + wantMixed
	for r := 0; r < nRanks; r++ {
		if perRank[r] != wantColl {
			t.Errorf("rank %d ran %d collectives, want %d", r, perRank[r], wantColl)
		}
		if mixed[r] != wantMixed {
			t.Errorf("rank %d ran %d mixed-op reduces, want %d", r, mixed[r], wantMixed)
		}
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
