package core

import (
	"math"
	"math/rand"
	"testing"
)

func knowledgeFrom(t *testing.T, entries ...RankLoad) *Knowledge {
	t.Helper()
	max := Rank(0)
	for _, e := range entries {
		if e.Rank > max {
			max = e.Rank
		}
	}
	k := NewKnowledge(int(max) + 2)
	for _, e := range entries {
		k.Add(e.Rank, e.Load)
	}
	return k
}

func TestBuildCMFOriginalWeights(t *testing.T) {
	// ave = 4; loads 0 and 2 -> masses (1-0/4)=1 and (1-2/4)=0.5,
	// normalized to 2/3 and 1/3.
	k := knowledgeFrom(t, RankLoad{0, 0}, RankLoad{1, 2})
	cmf, ok := BuildCMF(k, 5, 4, CMFOriginal)
	if !ok {
		t.Fatal("BuildCMF failed")
	}
	if cmf.Len() != 2 {
		t.Fatalf("Len = %d", cmf.Len())
	}
	if got := cmf.Prob(0); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("Prob(0) = %g, want 2/3", got)
	}
	if got := cmf.Prob(1); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("Prob(1) = %g, want 1/3", got)
	}
}

func TestBuildCMFOriginalClampsOverloaded(t *testing.T) {
	// A known rank above the average gets zero probability, not negative.
	k := knowledgeFrom(t, RankLoad{0, 10}, RankLoad{1, 1})
	cmf, ok := BuildCMF(k, 5, 4, CMFOriginal)
	if !ok {
		t.Fatal("BuildCMF failed")
	}
	if got := cmf.Prob(0); got != 0 {
		t.Errorf("overloaded rank prob = %g, want 0", got)
	}
	if got := cmf.Prob(1); math.Abs(got-1) > 1e-12 {
		t.Errorf("remaining prob = %g, want 1", got)
	}
}

func TestBuildCMFModifiedUsesMaxLoad(t *testing.T) {
	// ave = 2 but max known load is 6 -> l_s = 6;
	// masses (1-0/6)=1, (1-6/6)=0 -> probs 1, 0.
	k := knowledgeFrom(t, RankLoad{0, 0}, RankLoad{1, 6})
	cmf, ok := BuildCMF(k, 5, 2, CMFModified)
	if !ok {
		t.Fatal("BuildCMF failed")
	}
	if got := cmf.Prob(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("Prob(0) = %g, want 1", got)
	}
	if got := cmf.Prob(1); got != 0 {
		t.Errorf("Prob(1) = %g, want 0", got)
	}
}

func TestBuildCMFExcludesSelf(t *testing.T) {
	k := knowledgeFrom(t, RankLoad{0, 0}, RankLoad{1, 0})
	cmf, ok := BuildCMF(k, 0, 4, CMFOriginal)
	if !ok {
		t.Fatal("BuildCMF failed")
	}
	if cmf.Len() != 1 || cmf.Rank(0) != 1 {
		t.Errorf("self not excluded: len=%d", cmf.Len())
	}
}

func TestBuildCMFNoMass(t *testing.T) {
	// Everything at or above the normalization level: no candidates.
	k := knowledgeFrom(t, RankLoad{0, 4}, RankLoad{1, 5})
	if _, ok := BuildCMF(k, 9, 4, CMFOriginal); ok {
		t.Error("expected ok=false for zero total mass")
	}
}

func TestBuildCMFModifiedNeverNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(12)
		k := NewKnowledge(n + 1)
		for r := 0; r < n; r++ {
			k.Add(Rank(r), rng.Float64()*10)
		}
		ave := rng.Float64() * 5
		cmf, ok := BuildCMF(k, Rank(n), ave, CMFModified)
		if !ok {
			// Legal only when every load equals the max and exceeds ave,
			// collapsing all mass; skip.
			continue
		}
		prev := 0.0
		for i := 0; i < cmf.Len(); i++ {
			if p := cmf.Prob(i); p < 0 {
				t.Fatalf("negative probability %g", p)
			}
			if cmf.cum[i] < prev {
				t.Fatalf("non-monotone cum at %d", i)
			}
			prev = cmf.cum[i]
		}
		if math.Abs(cmf.cum[cmf.Len()-1]-1) > 1e-12 {
			t.Fatalf("cum does not end at 1: %g", cmf.cum[cmf.Len()-1])
		}
	}
}

func TestCMFSampleRespectsZeroMass(t *testing.T) {
	k := knowledgeFrom(t, RankLoad{0, 4}, RankLoad{1, 0}, RankLoad{2, 4})
	cmf, ok := BuildCMF(k, 9, 4, CMFOriginal)
	if !ok {
		t.Fatal("BuildCMF failed")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if got := cmf.Sample(rng); got != 1 {
			t.Fatalf("sampled zero-mass rank %d", got)
		}
	}
}

func TestCMFSampleDistribution(t *testing.T) {
	// probs 2/3 and 1/3: empirical frequencies must be near.
	k := knowledgeFrom(t, RankLoad{0, 0}, RankLoad{1, 2})
	cmf, _ := BuildCMF(k, 9, 4, CMFOriginal)
	rng := rand.New(rand.NewSource(2))
	const n = 30000
	count := 0
	for i := 0; i < n; i++ {
		if cmf.Sample(rng) == 0 {
			count++
		}
	}
	freq := float64(count) / n
	if math.Abs(freq-2.0/3) > 0.02 {
		t.Errorf("empirical freq %g, want ~0.667", freq)
	}
}

// TestCMFEdgeCases pins the boundary behaviour of BUILDCMF for both
// normalization kinds: knowledge where every rank sits at or above the
// normalization level, degenerate all-zero mass, and single-candidate
// knowledge.
func TestCMFEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		kind    CMFKind
		ave     float64
		entries []RankLoad
		wantOK  bool
		// wantProbs is checked entry-by-entry when wantOK; keys are the
		// candidate positions of the insertion order.
		wantProbs []float64
	}{
		{
			// §V-C: with l_s = max load, equal loads at the max collapse
			// every probability to zero — the one case the modified CMF
			// cannot save.
			name: "modified all ranks at shared max", kind: CMFModified,
			ave: 2, entries: []RankLoad{{0, 6}, {1, 6}, {2, 6}}, wantOK: false,
		},
		{
			// §V-C: ranks above the average are exactly what the modified
			// CMF exists for — l_s stretches to the max known load, and
			// everyone below the max keeps positive mass.
			name: "modified all ranks above average", kind: CMFModified,
			ave: 2, entries: []RankLoad{{0, 6}, {1, 3}}, wantOK: true,
			wantProbs: []float64{0, 1},
		},
		{
			name: "modified everyone at the average", kind: CMFModified,
			ave: 4, entries: []RankLoad{{0, 4}, {1, 4}}, wantOK: false,
		},
		{
			name: "original all at or above average", kind: CMFOriginal,
			ave: 4, entries: []RankLoad{{0, 4}, {1, 9}}, wantOK: false,
		},
		{
			// l_s = ave = 0: mass is undefined, Rebuild must refuse.
			name: "zero average zero loads", kind: CMFOriginal,
			ave: 0, entries: []RankLoad{{0, 0}, {1, 0}}, wantOK: false,
		},
		{
			name: "modified zero average zero loads", kind: CMFModified,
			ave: 0, entries: []RankLoad{{0, 0}, {1, 0}}, wantOK: false,
		},
		{
			name: "single idle candidate", kind: CMFOriginal,
			ave: 4, entries: []RankLoad{{0, 0}}, wantOK: true,
			wantProbs: []float64{1},
		},
		{
			name: "empty knowledge", kind: CMFModified,
			ave: 4, entries: nil, wantOK: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKnowledge(10)
			for _, e := range tc.entries {
				k.Add(e.Rank, e.Load)
			}
			cmf, ok := BuildCMF(k, 9, tc.ave, tc.kind)
			if ok != tc.wantOK {
				t.Fatalf("ok = %v, want %v", ok, tc.wantOK)
			}
			if !ok {
				if cmf.Len() != 0 {
					t.Errorf("failed build left %d candidates", cmf.Len())
				}
				return
			}
			if cmf.Len() != len(tc.wantProbs) {
				t.Fatalf("Len = %d, want %d", cmf.Len(), len(tc.wantProbs))
			}
			for i, want := range tc.wantProbs {
				if got := cmf.Prob(i); math.Abs(got-want) > 1e-12 {
					t.Errorf("Prob(%d) = %g, want %g", i, got, want)
				}
			}
		})
	}
}

// TestCMFRebuildRecoversAfterFailure exercises the in-place Rebuild used
// by the RecomputeCMF transfer loop: a failed rebuild empties the
// receiver, and a subsequent successful one restores it.
func TestCMFRebuildRecoversAfterFailure(t *testing.T) {
	good := knowledgeFrom(t, RankLoad{0, 0}, RankLoad{1, 2})
	bad := knowledgeFrom(t, RankLoad{0, 4}, RankLoad{1, 5})
	var c CMF
	if !c.Rebuild(good, 9, 4, CMFOriginal) {
		t.Fatal("initial rebuild failed")
	}
	if c.Rebuild(bad, 9, 4, CMFOriginal) {
		t.Fatal("rebuild over zero-mass knowledge succeeded")
	}
	if c.Len() != 0 {
		t.Errorf("failed rebuild kept %d stale candidates", c.Len())
	}
	if !c.Rebuild(good, 9, 4, CMFOriginal) {
		t.Fatal("rebuild after failure failed")
	}
	if c.Len() != 2 || c.Rank(0) != 0 || c.Rank(1) != 1 {
		t.Errorf("recovered CMF wrong: len %d", c.Len())
	}
}

// TestCMFSampleSkipsTrailingZeroMass pins the binary-search boundary: a
// zero-mass bucket in the final position shares its cumulative value with
// its predecessor and must never be selected.
func TestCMFSampleSkipsTrailingZeroMass(t *testing.T) {
	// ls = 6: masses 2/3 for rank 0, exactly 0 for the trailing rank 1.
	k := knowledgeFrom(t, RankLoad{0, 2}, RankLoad{1, 6})
	cmf, ok := BuildCMF(k, 9, 2, CMFModified)
	if !ok {
		t.Fatal("BuildCMF failed")
	}
	if got := cmf.Prob(1); got != 0 {
		t.Fatalf("trailing prob = %g, want 0", got)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		if got := cmf.Sample(rng); got != 0 {
			t.Fatalf("sampled trailing zero-mass rank %d", got)
		}
	}
}

// TestKnowledgeCanonicalizeOrderIndependent checks that knowledge
// produces the same CMF, in rank order, regardless of insertion (i.e.
// message arrival) order, with no canonicalizing step.
func TestKnowledgeCanonicalizeOrderIndependent(t *testing.T) {
	entries := []RankLoad{{3, 1}, {0, 2}, {2, 0.5}, {1, 3}}
	forward := NewKnowledge(6)
	for _, e := range entries {
		forward.Add(e.Rank, e.Load)
	}
	backward := NewKnowledge(6)
	for i := len(entries) - 1; i >= 0; i-- {
		backward.Add(entries[i].Rank, entries[i].Load)
	}
	for _, e := range entries {
		if forward.Load(e.Rank) != e.Load || backward.Load(e.Rank) != e.Load {
			t.Errorf("load of rank %d: %g and %g, want %g", e.Rank, forward.Load(e.Rank), backward.Load(e.Rank), e.Load)
		}
	}
	a, okA := BuildCMF(forward, 5, 2, CMFModified)
	b, okB := BuildCMF(backward, 5, 2, CMFModified)
	if !okA || !okB || a.Len() != len(entries) || b.Len() != len(entries) {
		t.Fatal("BuildCMF failed")
	}
	for i := 0; i < a.Len(); i++ {
		if a.Rank(i) != Rank(i) {
			t.Errorf("candidate %d is rank %d: not in rank order", i, a.Rank(i))
		}
		if a.Rank(i) != b.Rank(i) || a.Prob(i) != b.Prob(i) {
			t.Errorf("CMFs differ at %d", i)
		}
	}
}

func TestCMFSampleAlwaysKnownRank(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(10)
		k := NewKnowledge(n)
		for r := 0; r < n-1; r++ {
			k.Add(Rank(r), rng.Float64())
		}
		cmf, ok := BuildCMF(k, Rank(n-1), 2, CMFModified)
		if !ok {
			continue
		}
		for i := 0; i < 50; i++ {
			r := cmf.Sample(rng)
			if !k.Contains(r) {
				t.Fatalf("sampled unknown rank %d", r)
			}
			if r == Rank(n-1) {
				t.Fatalf("sampled self")
			}
		}
	}
}
