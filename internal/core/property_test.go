package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// quickCfg bounds the case count so the full suite stays fast.
var quickCfg = &quick.Config{MaxCount: 200}

// TestQuickTransferConservation: for arbitrary knowledge, task lists and
// configs, the transfer stage conserves load exactly: the sender's drop
// equals the sum of the proposed tasks' loads, and matches the total
// growth of the recipients' loads the stage scheduled.
func TestQuickTransferConservation(t *testing.T) {
	f := func(loads []uint8, recips []uint8, seed int64, relaxed bool) bool {
		if len(loads) == 0 || len(recips) == 0 {
			return true
		}
		if len(loads) > 64 {
			loads = loads[:64]
		}
		if len(recips) > 32 {
			recips = recips[:32]
		}
		cfg := Grapevine()
		if relaxed {
			cfg.Criterion = CriterionRelaxed
			cfg.CMF = CMFModified
			cfg.RecomputeCMF = true
		}
		know := NewKnowledge(len(recips) + 1)
		before := 0.0
		for i, r := range recips {
			l := float64(r) / 64
			know.Add(Rank(i), l)
			before += l
		}
		tasks := make([]Task, len(loads))
		total := 0.0
		for i, l := range loads {
			tasks[i] = Task{ID: TaskID(i), Load: float64(l) / 32}
			total += tasks[i].Load
		}
		self := Rank(len(recips))
		props, _, after := RunTransferScratch(self, tasks, total, 1.0, know, &cfg, rand.New(rand.NewSource(seed)), nil, &TransferScratch{})
		sent := 0.0
		for _, p := range props {
			sent += tasks[p.Task].Load
			if p.To == self {
				t.Fatalf("proposal to self")
			}
		}
		knowAfter := 0.0
		for _, e := range scheduledLoads(t, know, tasks, props) {
			knowAfter += e.Load
		}
		return math.Abs((total-after)-sent) < 1e-9 &&
			math.Abs((knowAfter-before)-sent) < 1e-9
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickProposalsUnique: a task is proposed for transfer at most once.
func TestQuickProposalsUnique(t *testing.T) {
	f := func(n uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Tempered()
		cfg.Passes = 0
		know := NewKnowledge(16)
		for r := 0; r < 8; r++ {
			know.Add(Rank(r), rng.Float64())
		}
		count := int(n%50) + 1
		tasks := make([]Task, count)
		total := 0.0
		for i := range tasks {
			tasks[i] = Task{ID: TaskID(i), Load: rng.Float64()}
			total += tasks[i].Load
		}
		props, _, _ := RunTransferScratch(10, tasks, total, total/32, know, &cfg, rng, nil, &TransferScratch{})
		seen := map[TaskID]bool{}
		for _, p := range props {
			if seen[p.Task] {
				return false
			}
			seen[p.Task] = true
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickCMFValid: for arbitrary knowledge and averages, a built CMF's
// normalized prefix mass is non-decreasing and ends at 1, and no
// candidate has negative mass.
func TestQuickCMFValid(t *testing.T) {
	f := func(loads []uint8, aveRaw uint8, modified bool) bool {
		if len(loads) == 0 {
			return true
		}
		if len(loads) > 48 {
			loads = loads[:48]
		}
		know := NewKnowledge(len(loads) + 1)
		for i, l := range loads {
			know.Add(Rank(i), float64(l)/16)
		}
		kind := CMFOriginal
		if modified {
			kind = CMFModified
		}
		ave := float64(aveRaw)/32 + 0.01
		cmf, ok := buildCMF(know, Rank(len(loads)), ave, kind)
		if !ok {
			return true
		}
		prev := 0.0
		for i := 0; i < cmf.Len(); i++ {
			if cmf.Prob(i) < -1e-12 || cmf.cum(i) < prev-1e-12 {
				return false
			}
			prev = cmf.cum(i)
		}
		return math.Abs(cmf.cum(cmf.Len()-1)-1) < 1e-12
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickOrderingsPermute: every ordering is a permutation for
// arbitrary loads and parameters.
func TestQuickOrderingsPermute(t *testing.T) {
	f := func(loads []uint8, aveRaw, selfRaw uint8, ordRaw uint8) bool {
		tasks := make([]Task, len(loads))
		for i, l := range loads {
			tasks[i] = Task{ID: TaskID(i), Load: float64(l) / 16}
		}
		ord := Ordering(ordRaw % 4)
		out := OrderTasks(tasks, float64(aveRaw)/16, float64(selfRaw)/4, ord)
		if len(out) != len(tasks) {
			return false
		}
		seen := make([]bool, len(tasks))
		for _, task := range out {
			if seen[task.ID] {
				return false
			}
			seen[task.ID] = true
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickKnowledgeMergeIdempotent: merging the same payload twice adds
// nothing the second time, and merge order does not change membership.
func TestQuickKnowledgeMergeIdempotent(t *testing.T) {
	f := func(a, b []uint8) bool {
		mk := func(vals []uint8) []RankLoad {
			out := make([]RankLoad, 0, len(vals))
			for _, v := range vals {
				out = append(out, RankLoad{Rank: Rank(v % 32), Load: float64(v)})
			}
			return out
		}
		pa, pb := mk(a), mk(b)

		k1 := NewKnowledge(32)
		k1.Merge(pa)
		k1.Merge(pb)
		if k1.Merge(pa) != 0 || k1.Merge(pb) != 0 {
			return false // idempotence
		}
		k2 := NewKnowledge(32)
		k2.Merge(pb)
		k2.Merge(pa)
		if k1.Len() != k2.Len() {
			return false
		}
		for _, r := range members(k1) {
			if !k2.Contains(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickAssignmentMoveSequence: any sequence of moves keeps the
// assignment structurally valid and conserves total load.
func TestQuickAssignmentMoveSequence(t *testing.T) {
	f := func(loads []uint8, moves []uint16) bool {
		if len(loads) == 0 {
			return true
		}
		const ranks = 7
		a := NewAssignment(ranks)
		total := 0.0
		for _, l := range loads {
			a.Add(float64(l)/8, Rank(int(l)%ranks))
			total += float64(l) / 8
		}
		for _, m := range moves {
			id := TaskID(int(m) % len(loads))
			to := Rank(int(m>>8) % ranks)
			a.Move(id, to)
		}
		if a.Validate() != nil {
			return false
		}
		return math.Abs(a.TotalLoad()-total) < 1e-6
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickObjectiveLowerBound: F(D) >= maxLoad/ave − h for any
// distribution, with equality by definition; and applying any single
// relaxed-criterion-accepted transfer never raises F.
func TestQuickObjectiveRelaxedNeverWorsens(t *testing.T) {
	f := func(loads []uint8, iRaw, xRaw uint8, lRaw uint16) bool {
		if len(loads) < 2 {
			return true
		}
		if len(loads) > 16 {
			loads = loads[:16]
		}
		fl := make([]float64, len(loads))
		for j, v := range loads {
			fl[j] = float64(v) / 8
		}
		i := int(iRaw) % len(fl)
		x := int(xRaw) % len(fl)
		if i == x {
			return true
		}
		l := float64(lRaw) / 1024
		if !(l > 0 && l < fl[i]-fl[x]) {
			return true // criterion rejects; nothing to check
		}
		before := Objective(fl, 1)
		fl[i] -= l
		fl[x] += l
		return Objective(fl, 1) <= before+1e-12
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickEngineNeverWorsens: over random clustered workloads and
// configs, the engine's best distribution is never worse than the input.
func TestQuickEngineNeverWorsens(t *testing.T) {
	f := func(seed int64, relaxed bool, ordRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewAssignment(16)
		n := 20 + rng.Intn(60)
		for i := 0; i < n; i++ {
			a.Add(rng.Float64(), Rank(rng.Intn(3)))
		}
		cfg := Grapevine()
		cfg.Rounds, cfg.Fanout = 4, 3
		cfg.Iterations = 3
		cfg.Order = Ordering(ordRaw % 4)
		cfg.Seed = seed
		if relaxed {
			cfg.Criterion = CriterionRelaxed
			cfg.CMF = CMFModified
		}
		eng, err := NewEngine(EngineConfig{Config: cfg})
		if err != nil {
			return false
		}
		res, err := eng.Run(a)
		if err != nil {
			return false
		}
		res.Apply(a)
		return res.FinalImbalance <= res.InitialImbalance+1e-12 &&
			a.Validate() == nil &&
			math.Abs(a.Imbalance()-res.FinalImbalance) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// FuzzOrderTasks drives the ordering algorithms with arbitrary packed
// inputs; they must always return a permutation and never panic.
func FuzzOrderTasks(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, 1.0, 10.0, uint8(2))
	f.Add([]byte{}, 0.0, 0.0, uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, ave, self float64, ordRaw uint8) {
		if math.IsNaN(ave) || math.IsNaN(self) || math.IsInf(ave, 0) || math.IsInf(self, 0) {
			return
		}
		tasks := make([]Task, len(raw))
		for i, v := range raw {
			tasks[i] = Task{ID: TaskID(i), Load: float64(v)}
		}
		out := OrderTasks(tasks, ave, self, Ordering(ordRaw%4))
		if len(out) != len(tasks) {
			t.Fatal("length changed")
		}
		seen := make([]bool, len(tasks))
		for _, task := range out {
			if seen[task.ID] {
				t.Fatal("duplicate")
			}
			seen[task.ID] = true
		}
	})
}
