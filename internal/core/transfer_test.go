package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func transferConfig(crit Criterion) Config {
	cfg := Grapevine()
	cfg.Criterion = crit
	if crit == CriterionRelaxed {
		cfg.CMF = CMFModified
		cfg.RecomputeCMF = true
	}
	return cfg
}

// scheduledLoads returns each known rank's load as a stage left it in the
// sender's view, in rank order: its gossiped load plus the loads of the
// tasks proposed to it, added in proposal order as line 12 adds them.
// tasks is indexed by TaskID.
func scheduledLoads(t *testing.T, know *Knowledge, tasks []Task, props []Proposal) []RankLoad {
	t.Helper()
	known := members(know)
	out := make([]RankLoad, len(known))
	for i, r := range known {
		out[i] = RankLoad{r, know.Load(r)}
	}
	for _, p := range props {
		i, ok := slices.BinarySearch(known, p.To)
		if !ok {
			t.Fatalf("proposal of task %d to rank %d, which the knowledge does not hold", p.Task, p.To)
		}
		out[i].Load += tasks[p.Task].Load
	}
	return out
}

func TestRunTransferEmptyKnowledge(t *testing.T) {
	cfg := transferConfig(CriterionOriginal)
	know := NewKnowledge(4)
	props, st, load := RunTransferScratch(0, tasksFromLoads(5, 5), 10, 1, know, &cfg, rand.New(rand.NewSource(1)), nil, &TransferScratch{})
	if props != nil || st.Accepted != 0 || load != 10 {
		t.Errorf("transfer with no knowledge did something: %v %+v %g", props, st, load)
	}
}

func TestRunTransferNotOverloaded(t *testing.T) {
	cfg := transferConfig(CriterionOriginal)
	know := knowledgeFrom(t, RankLoad{1, 0})
	props, st, load := RunTransferScratch(0, tasksFromLoads(1), 1, 2, know, &cfg, rand.New(rand.NewSource(1)), nil, &TransferScratch{})
	if len(props) != 0 || st.Accepted+st.Rejected != 0 || load != 1 {
		t.Errorf("non-overloaded rank transferred: %v %+v", props, st)
	}
}

func TestRunTransferShedsUntilThreshold(t *testing.T) {
	cfg := transferConfig(CriterionRelaxed)
	// Rank 0 has 10 unit tasks; ave 2; plenty of empty recipients.
	know := knowledgeFrom(t, RankLoad{1, 0}, RankLoad{2, 0}, RankLoad{3, 0}, RankLoad{4, 0})
	tasks := tasksFromLoads(1, 1, 1, 1, 1, 1, 1, 1, 1, 1)
	props, st, load := RunTransferScratch(0, tasks, 10, 2, know, &cfg, rand.New(rand.NewSource(2)), nil, &TransferScratch{})
	if load > 2+1e-9 {
		t.Errorf("rank still overloaded: %g", load)
	}
	if len(props) != st.Accepted {
		t.Errorf("proposal count %d != accepted %d", len(props), st.Accepted)
	}
	if got := 10 - float64(len(props)); math.Abs(got-load) > 1e-9 {
		t.Errorf("load accounting: %g vs %g", got, load)
	}
}

func TestRunTransferOriginalNeverOverloadsKnownRecipient(t *testing.T) {
	// Under the original criterion, the sender's local view of every
	// recipient must stay strictly below the average.
	cfg := transferConfig(CriterionOriginal)
	cfg.Passes = 0
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		know := NewKnowledge(16)
		for r := 1; r < 12; r++ {
			know.Add(Rank(r), rng.Float64()*2)
		}
		var tasks []Task
		total := 0.0
		for i := 0; i < 20; i++ {
			l := rng.Float64() * 3
			tasks = append(tasks, Task{ID: TaskID(i), Load: l})
			total += l
		}
		ave := 2.5
		props, _, _ := RunTransferScratch(0, tasks, total, ave, know, &cfg, rng, nil, &TransferScratch{})
		for _, e := range scheduledLoads(t, know, tasks, props) {
			if e.Load >= ave+1e-9 {
				t.Fatalf("recipient %d pushed to %g >= ave %g under original criterion",
					e.Rank, e.Load, ave)
			}
		}
	}
}

func TestRunTransferRelaxedRecipientBelowSenderPriorLoad(t *testing.T) {
	// Under the relaxed criterion, each accepted transfer leaves the
	// recipient (sender's view) strictly below the sender's load just
	// before the transfer; since sender load only decreases, every
	// recipient stays strictly below the sender's initial load.
	cfg := transferConfig(CriterionRelaxed)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		know := NewKnowledge(16)
		for r := 1; r < 10; r++ {
			know.Add(Rank(r), rng.Float64()*4)
		}
		var tasks []Task
		total := 0.0
		for i := 0; i < 15; i++ {
			l := 0.1 + rng.Float64()*3
			tasks = append(tasks, Task{ID: TaskID(i), Load: l})
			total += l
		}
		before := total
		props, _, _ := RunTransferScratch(0, tasks, total, 1.0, know, &cfg, rng, nil, &TransferScratch{})
		for _, e := range scheduledLoads(t, know, tasks, props) {
			if e.Load >= before+1e-9 {
				t.Fatalf("recipient %d at %g >= sender initial %g", e.Rank, e.Load, before)
			}
		}
	}
}

func TestRunTransferConservation(t *testing.T) {
	// Sender's load drop must equal the sum of proposed task loads, and
	// the recipients' scheduled load increases must match too.
	cfg := transferConfig(CriterionRelaxed)
	rng := rand.New(rand.NewSource(5))
	know := NewKnowledge(8)
	for r := 1; r < 6; r++ {
		know.Add(Rank(r), 0)
	}
	tasks := tasksFromLoads(2, 3, 1, 4, 2, 2)
	var total float64
	for _, task := range tasks {
		total += task.Load
	}
	props, _, after := RunTransferScratch(0, tasks, total, 1.5, know, &cfg, rng, nil, &TransferScratch{})
	sent := 0.0
	for _, p := range props {
		sent += tasks[p.Task].Load
	}
	if math.Abs((total-after)-sent) > 1e-9 {
		t.Errorf("conservation: dropped %g but proposed %g", total-after, sent)
	}
	gained := 0.0
	for _, e := range scheduledLoads(t, know, tasks, props) {
		gained += e.Load
	}
	if math.Abs(gained-sent) > 1e-9 {
		t.Errorf("recipients gained %g, proposals carry %g", gained, sent)
	}
}

func TestRunTransferProposalsTargetKnownRanks(t *testing.T) {
	cfg := transferConfig(CriterionRelaxed)
	rng := rand.New(rand.NewSource(6))
	know := knowledgeFrom(t, RankLoad{2, 0}, RankLoad{5, 0.5})
	tasks := tasksFromLoads(1, 1, 1, 1)
	props, _, _ := RunTransferScratch(7, tasks, 4, 0.5, know, &cfg, rng, nil, &TransferScratch{})
	for _, p := range props {
		if p.To != 2 && p.To != 5 {
			t.Errorf("proposal to unknown rank %d", p.To)
		}
		if p.To == 7 {
			t.Error("proposal to self")
		}
	}
}

func TestRunTransferSinglePassBoundsEvaluations(t *testing.T) {
	cfg := transferConfig(CriterionOriginal)
	cfg.Passes = 1
	rng := rand.New(rand.NewSource(7))
	know := knowledgeFrom(t, RankLoad{1, 0})
	tasks := tasksFromLoads(5, 5, 5, 5, 5) // all unplaceable: 0+5 >= ave 1
	_, st, _ := RunTransferScratch(0, tasks, 25, 1, know, &cfg, rng, nil, &TransferScratch{})
	if st.Accepted != 0 {
		t.Errorf("accepted %d unplaceable tasks", st.Accepted)
	}
	if st.Rejected != len(tasks) {
		t.Errorf("single pass evaluated %d, want %d", st.Rejected, len(tasks))
	}
}

func TestRunTransferQuiescenceStops(t *testing.T) {
	// Until-quiescence must stop after one extra pass when nothing is
	// placeable, not loop forever.
	cfg := transferConfig(CriterionOriginal)
	cfg.Passes = 0
	rng := rand.New(rand.NewSource(8))
	know := knowledgeFrom(t, RankLoad{1, 0})
	tasks := tasksFromLoads(5, 5, 5)
	_, st, _ := RunTransferScratch(0, tasks, 15, 1, know, &cfg, rng, nil, &TransferScratch{})
	if st.Rejected != len(tasks) {
		t.Errorf("quiescence made %d rejections, want one pass of %d", st.Rejected, len(tasks))
	}
}

func TestRunTransferMultiPassRetriesRejected(t *testing.T) {
	// With two known recipients, one full and one empty, the original
	// CMF without recompute can sample the full one and reject; a later
	// pass can succeed. Multi-pass must strictly dominate single-pass
	// acceptance here (statistically; fixed seed makes it deterministic).
	base := transferConfig(CriterionOriginal)
	know1 := knowledgeFrom(t, RankLoad{1, 0}, RankLoad{2, 0.9})
	know2 := knowledgeFrom(t, RankLoad{1, 0}, RankLoad{2, 0.9})
	tasks := tasksFromLoads(0.5, 0.5, 0.5, 0.5)

	single := base
	single.Passes = 1
	_, st1, _ := RunTransferScratch(0, tasks, 2, 1.0, know1, &single, rand.New(rand.NewSource(9)), nil, &TransferScratch{})

	multi := base
	multi.Passes = 0
	_, st2, _ := RunTransferScratch(0, tasks, 2, 1.0, know2, &multi, rand.New(rand.NewSource(9)), nil, &TransferScratch{})

	if st2.Accepted < st1.Accepted {
		t.Errorf("multi-pass accepted %d < single-pass %d", st2.Accepted, st1.Accepted)
	}
}

func TestRunTransferNoCandidateMass(t *testing.T) {
	cfg := transferConfig(CriterionOriginal)
	// Every known rank at the average: zero CMF mass, loop must exit.
	know := knowledgeFrom(t, RankLoad{1, 2}, RankLoad{2, 2})
	_, st, load := RunTransferScratch(0, tasksFromLoads(1, 1, 1), 3, 2, know, &cfg, rand.New(rand.NewSource(10)), nil, &TransferScratch{})
	if st.NoCandidate == 0 {
		t.Error("expected NoCandidate exit")
	}
	if load != 3 {
		t.Errorf("load changed without candidates: %g", load)
	}
}

// TestTransferStageLeavesKnowledgeAlone: the stage keeps the loads it
// schedules in its CMF, so the node's load table — members' and stale
// slots alike — and the knowledge's membership and loads are bit-identical
// before and after it, for both criteria, with the CMF raised or rebuilt
// per pass.
func TestTransferStageLeavesKnowledgeAlone(t *testing.T) {
	const numRanks = 200
	rng := rand.New(rand.NewSource(12))
	for _, crit := range []Criterion{CriterionOriginal, CriterionRelaxed} {
		for _, recompute := range []bool{false, true} {
			cfg := transferConfig(crit)
			cfg.Passes, cfg.RecomputeCMF = 0, recompute
			table := NewLoadTable(numRanks)
			for r := range table.slot {
				table.store(Rank(r), 10+rng.Float64()) // stale slots: no knowledge holds them
			}
			know := newKnowledgeOn(table)
			for r := 1; r < numRanks; r++ {
				if rng.Intn(3) == 0 {
					know.Add(Rank(r), rng.Float64())
				}
			}
			tasks := make([]Task, 40)
			total := 0.0
			for i := range tasks {
				tasks[i] = Task{ID: TaskID(i), Load: 0.1 + rng.Float64()/2}
				total += tasks[i].Load
			}
			slots := func() []uint64 {
				out := make([]uint64, numRanks)
				for r := range out {
					out[r] = table.slot[r].Load()
				}
				return out
			}
			loads := func() []uint64 {
				var out []uint64
				for _, r := range members(know) {
					out = append(out, math.Float64bits(know.Load(r)))
				}
				return out
			}
			wantSlots, wantWords, wantLoads := slots(), slices.Clone(know.member), loads()
			span := [3]int{know.lo, know.hi, know.n}
			props, _, _ := RunTransferScratch(0, tasks, total, 1.5, know, &cfg, rng, nil, &TransferScratch{})
			if len(props) == 0 {
				t.Fatalf("%v recompute=%v: no transfer accepted, so the case shows nothing", crit, recompute)
			}
			if !slices.Equal(slots(), wantSlots) {
				t.Errorf("%v recompute=%v: the stage wrote the load table", crit, recompute)
			}
			if !slices.Equal(know.member, wantWords) || [3]int{know.lo, know.hi, know.n} != span {
				t.Errorf("%v recompute=%v: the stage changed the knowledge's membership", crit, recompute)
			}
			if !slices.Equal(loads(), wantLoads) {
				t.Errorf("%v recompute=%v: the stage changed the knowledge's loads", crit, recompute)
			}
		}
	}
}

// TestTransferStageAllocatesPerCandidate: a stage's memory is O(|S^p|),
// not O(P). With a fresh scratch at P = 65 536 and |S^p| = 64, one stage
// allocates under 8 KB. Each op also makes the knowledge it reads, whose
// P/8-byte bitset is subtracted: a fresh knowledge is what shows a
// per-knowledge O(P) buffer, which a reused one would pay once.
func TestTransferStageAllocatesPerCandidate(t *testing.T) {
	const numRanks, known = 1 << 16, 64
	table := NewLoadTable(numRanks)
	src := newKnowledgeOn(table)
	for i := 0; i < known; i++ {
		src.Add(Rank(i*numRanks/known+7), 0) // spread over the rank space
	}
	gossiped := snapshotOf(src)
	tasks := tasksFromLoads(1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)
	cfg := Tempered()
	proposed := 0
	res := testing.Benchmark(func(b *testing.B) {
		rng := SeededRNG(1, 2)
		for i := 0; i < b.N; i++ {
			know := newKnowledgeOn(table)
			know.merge(gossiped)
			props, _, _ := RunTransferScratch(0, tasks, 16, 1, know, &cfg, rng, nil, new(TransferScratch))
			proposed = len(props)
		}
	})
	if proposed == 0 {
		t.Fatal("the stage proposed nothing, so it shows nothing")
	}
	if got := res.AllocedBytesPerOp() - numRanks/8; got >= 8<<10 {
		t.Errorf("a stage over %d candidates of %d ranks allocates %d B beyond the knowledge's bitset, want < 8192",
			known, numRanks, got)
	}
}

// BenchmarkTransferStage is one overloaded rank's transfer stage at the
// paper's scale, the shape of bench/'s core.transfer_stage_us probe: 625
// tasks (10^4 over 16 ranks) against knowledge of the 4080 idle ranks,
// warm scratch, 0 allocs/op. An op starts from the gossip stage's
// knowledge — a snapshot merge — which the stage only reads. With the CMF
// raised after each accepted transfer (line 7), recompute costs what
// building once per pass costs.
func BenchmarkTransferStage(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tasks := make([]Task, 625)
	load := 0.0
	for i := range tasks {
		tasks[i] = Task{ID: TaskID(i), Load: 0.1 + 0.8*rng.Float64()}
		load += tasks[i].Load
	}
	ave := load * 16 / benchRanks
	src := NewKnowledge(benchRanks)
	for r := benchRanks - benchKnown; r < benchRanks; r++ {
		src.Add(Rank(r), 0)
	}
	gossiped := snapshotOf(src)
	for _, recompute := range []bool{false, true} {
		b.Run(fmt.Sprint("recompute=", recompute), func(b *testing.B) {
			cfg := Tempered()
			cfg.RecomputeCMF = recompute
			know := newKnowledgeOn(src.table)
			xrng := SeededRNG(1, 2)
			var scr TransferScratch
			stage := func() {
				know.Reset()
				know.merge(gossiped)
				xrng.Seed(2) // every op the same stage, so none grows a buffer
				props, _, _ := RunTransferScratch(0, tasks, load, ave, know, &cfg, xrng, nil, &scr)
				sinkInt = len(props)
			}
			// Warm the scratch: two ops, as the task buffers swap roles
			// every pass.
			stage()
			stage()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stage()
			}
		})
	}
}
