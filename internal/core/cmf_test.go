package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
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

// buildCMF returns a CMF built over know.
func buildCMF(know *Knowledge, self Rank, ave float64, kind CMFKind) (*CMF, bool) {
	c := new(CMF)
	ok := c.Build(know, self, ave, kind)
	return c, ok
}

// cum returns the normalized mass of candidates 0..i: the i-th element of
// the cumulative mass function, in prefix form.
func (c *CMF) cum(i int) float64 { return c.prefix(i+1) / c.z }

// Prob returns the probability mass assigned to the i-th candidate.
func (c *CMF) Prob(i int) float64 { return c.mass(i) / c.z }

func TestBuildCMFOriginalWeights(t *testing.T) {
	// ave = 4; loads 0 and 2 -> masses (1-0/4)=1 and (1-2/4)=0.5,
	// normalized to 2/3 and 1/3.
	k := knowledgeFrom(t, RankLoad{0, 0}, RankLoad{1, 2})
	cmf, ok := buildCMF(k, 5, 4, CMFOriginal)
	if !ok {
		t.Fatal("Build failed")
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
	cmf, ok := buildCMF(k, 5, 4, CMFOriginal)
	if !ok {
		t.Fatal("Build failed")
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
	cmf, ok := buildCMF(k, 5, 2, CMFModified)
	if !ok {
		t.Fatal("Build failed")
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
	cmf, ok := buildCMF(k, 0, 4, CMFOriginal)
	if !ok {
		t.Fatal("Build failed")
	}
	if cmf.Len() != 1 || cmf.Rank(0) != 1 {
		t.Errorf("self not excluded: len=%d", cmf.Len())
	}
}

func TestBuildCMFNoMass(t *testing.T) {
	// Everything at or above the normalization level: no candidates.
	k := knowledgeFrom(t, RankLoad{0, 4}, RankLoad{1, 5})
	if _, ok := buildCMF(k, 9, 4, CMFOriginal); ok {
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
		cmf, ok := buildCMF(k, Rank(n), ave, CMFModified)
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
			// Fenwick prefixes of neighbours sum different nodes, so
			// they are non-decreasing up to rounding of the total.
			if cmf.cum(i) < prev-1e-12 {
				t.Fatalf("non-monotone cum at %d", i)
			}
			prev = cmf.cum(i)
		}
		if math.Abs(cmf.cum(cmf.Len()-1)-1) > 1e-12 {
			t.Fatalf("cum does not end at 1: %g", cmf.cum(cmf.Len()-1))
		}
	}
}

func TestCMFSampleRespectsZeroMass(t *testing.T) {
	k := knowledgeFrom(t, RankLoad{0, 4}, RankLoad{1, 0}, RankLoad{2, 4})
	cmf, ok := buildCMF(k, 9, 4, CMFOriginal)
	if !ok {
		t.Fatal("Build failed")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if got, _ := cmf.Sample(rng); got != 1 {
			t.Fatalf("sampled zero-mass rank %d", got)
		}
	}
}

func TestCMFSampleDistribution(t *testing.T) {
	// probs 2/3 and 1/3: empirical frequencies must be near.
	k := knowledgeFrom(t, RankLoad{0, 0}, RankLoad{1, 2})
	cmf, _ := buildCMF(k, 9, 4, CMFOriginal)
	rng := rand.New(rand.NewSource(2))
	const n = 30000
	count := 0
	for i := 0; i < n; i++ {
		if got, _ := cmf.Sample(rng); got == 0 {
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
			// l_s = ave = 0: mass is undefined, Build must refuse.
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
			cmf, ok := buildCMF(k, 9, tc.ave, tc.kind)
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

// TestCMFRebuildRecoversAfterFailure exercises the in-place Build a
// scratch repeats at every stage it serves: a failed build empties the
// receiver, and a subsequent successful one restores it.
func TestCMFRebuildRecoversAfterFailure(t *testing.T) {
	good := knowledgeFrom(t, RankLoad{0, 0}, RankLoad{1, 2})
	bad := knowledgeFrom(t, RankLoad{0, 4}, RankLoad{1, 5})
	var c CMF
	if !c.Build(good, 9, 4, CMFOriginal) {
		t.Fatal("initial rebuild failed")
	}
	if c.Build(bad, 9, 4, CMFOriginal) {
		t.Fatal("rebuild over zero-mass knowledge succeeded")
	}
	if c.Len() != 0 {
		t.Errorf("failed rebuild kept %d stale candidates", c.Len())
	}
	if !c.Build(good, 9, 4, CMFOriginal) {
		t.Fatal("rebuild after failure failed")
	}
	if c.Len() != 2 || c.Rank(0) != 0 || c.Rank(1) != 1 {
		t.Errorf("recovered CMF wrong: len %d", c.Len())
	}
}

// TestCMFSampleSkipsTrailingZeroMass pins the search boundary: a
// zero-mass bucket in the final position shares its prefix mass with its
// predecessor and must never be selected.
func TestCMFSampleSkipsTrailingZeroMass(t *testing.T) {
	// ls = 6: masses 2/3 for rank 0, exactly 0 for the trailing rank 1.
	k := knowledgeFrom(t, RankLoad{0, 2}, RankLoad{1, 6})
	cmf, ok := buildCMF(k, 9, 2, CMFModified)
	if !ok {
		t.Fatal("Build failed")
	}
	if got := cmf.Prob(1); got != 0 {
		t.Fatalf("trailing prob = %g, want 0", got)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		if got, _ := cmf.Sample(rng); got != 0 {
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
	a, okA := buildCMF(forward, 5, 2, CMFModified)
	b, okB := buildCMF(backward, 5, 2, CMFModified)
	if !okA || !okB || a.Len() != len(entries) || b.Len() != len(entries) {
		t.Fatal("Build failed")
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
		cmf, ok := buildCMF(k, Rank(n-1), 2, CMFModified)
		if !ok {
			continue
		}
		for i := 0; i < 50; i++ {
			r, _ := cmf.Sample(rng)
			if !k.Contains(r) {
				t.Fatalf("sampled unknown rank %d", r)
			}
			if r == Rank(n-1) {
				t.Fatalf("sampled self")
			}
		}
	}
}

// linearCMF is the reference the Fenwick CMF is held to: BUILDCMF as a
// rank-order walk, a linear cumulative sum normalized to end at exactly 1,
// and a bisection over it — the CMF before it became a tree, rebuilt from
// its own loads wherever the tree is updated instead.
type linearCMF struct {
	ranks []Rank
	mass  []float64 // 1 − l/l_s, clamped at 0
	cum   []float64
	ls    float64
}

// linearBuild walks S^p, the members of know, reading each load from
// load, the oracle's own map.
func linearBuild(know *Knowledge, load map[Rank]float64, self Rank, ave float64, kind CMFKind) (linearCMF, bool) {
	c := linearCMF{ls: ave}
	if kind == CMFModified {
		for _, r := range members(know) {
			c.ls = max(c.ls, load[r])
		}
	}
	if c.ls <= 0 {
		return c, false
	}
	z := 0.0
	for _, r := range members(know) {
		if r == self {
			continue
		}
		p := max(1-load[r]/c.ls, 0)
		z += p
		c.ranks = append(c.ranks, r)
		c.mass = append(c.mass, p)
		c.cum = append(c.cum, z)
	}
	if z <= 0 {
		return linearCMF{ls: c.ls}, false
	}
	for i := range c.cum {
		c.cum[i] /= z
	}
	c.cum[len(c.cum)-1] = 1
	return c, true
}

func (c linearCMF) prob(i int) float64 {
	if i == 0 {
		return c.cum[0]
	}
	return c.cum[i] - c.cum[i-1]
}

// search is the linear CMF's Sample for the draw u.
func (c linearCMF) search(u float64) int {
	return min(sort.Search(len(c.cum), func(j int) bool { return c.cum[j] > u }), len(c.cum)-1)
}

// TestCMFMatchesLinearOracle holds the Fenwick CMF to the linear one on
// generated knowledge — both kinds, self a member or not, loads at 0,
// below, at and above the average, several at the shared maximum, and a
// trailing zero-mass candidate — through random sequences of Raise, each
// mirrored in the load map the oracle is rebuilt from. After every
// step: l_s is the oracle's exactly (max(l_ave, largest known load,
// self's included) under CMFModified); ok agrees; every candidate's mass
// and prefix mass agree within 1e-12 of the total and its zero-mass flag
// exactly; and over 10^4 draws Sample returns the oracle's index unless
// the draw lies within 1e-12 of a bucket edge, and never a zero-mass
// candidate.
func TestCMFMatchesLinearOracle(t *testing.T) {
	// The fixed case first: a Raise past l_s moves l_s to the raised load.
	k := NewKnowledge(8)
	k.Add(1, 3)
	k.Add(2, 1)
	c, ok := buildCMF(k, 0, 2, CMFModified)
	if !ok || c.ls != 3 {
		t.Fatalf("l_s = %g (ok %v), want 3: the largest known load", c.ls, ok)
	}
	if c.Raise(1, 1, 4); c.ls != 4 {
		t.Fatalf("l_s = %g after raising rank 2 to 4, want 4", c.ls)
	}

	rng := rand.New(rand.NewSource(11))
	check := func(t *testing.T, c *CMF, ok bool, know *Knowledge, load map[Rank]float64, self Rank, ave float64, kind CMFKind, seed int64) {
		t.Helper()
		want, wantOK := linearBuild(know, load, self, ave, kind)
		if ok != wantOK {
			t.Fatalf("ok = %v, oracle %v", ok, wantOK)
		}
		if c.ls != want.ls {
			t.Fatalf("l_s = %g, oracle %g", c.ls, want.ls)
		}
		if !ok {
			return
		}
		if c.Len() != len(want.ranks) {
			t.Fatalf("%d candidates, oracle %d", c.Len(), len(want.ranks))
		}
		for i := range want.ranks {
			if c.Rank(i) != want.ranks[i] {
				t.Fatalf("candidate %d is rank %d, oracle %d", i, c.Rank(i), want.ranks[i])
			}
			if got := c.Prob(i); math.Abs(got-want.prob(i)) > 1e-12 {
				t.Fatalf("candidate %d: mass %g of the total, oracle %g", i, got, want.prob(i))
			}
			if got := c.cum(i); math.Abs(got-want.cum[i]) > 1e-12 {
				t.Fatalf("candidate %d: prefix mass %g of the total, oracle %g", i, got, want.cum[i])
			}
			if c.isZero(i) != (want.mass[i] == 0) {
				t.Fatalf("candidate %d: zero-mass %v, oracle mass %g", i, c.isZero(i), want.mass[i])
			}
		}
		draw, u := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for d := 0; d < 10_000; d++ {
			u := u.Float64()
			r, i := c.Sample(draw)
			if r != c.Rank(i) {
				t.Fatalf("Sample returned rank %d with index %d, which is rank %d", r, i, c.Rank(i))
			}
			if want.mass[i] == 0 {
				t.Fatalf("draw %g sampled zero-mass candidate %d", u, i)
			}
			if j := want.search(u); i != j && math.Abs(u-want.cum[min(i, j)]) > 1e-12 {
				t.Fatalf("draw %g: candidate %d, oracle %d, away from any bucket edge", u, i, j)
			}
		}
	}

	for trial := 0; trial < 60; trial++ {
		numRanks := 2 + rng.Intn(300)
		ave := 0.5 + rng.Float64()
		kind := CMFKind(rng.Intn(2))
		self := Rank(rng.Intn(numRanks))
		load := map[Rank]float64{}
		top := 2 * ave // the shared maximum some loads sit at
		last := Rank(-1)
		for r := Rank(0); int(r) < numRanks; r++ {
			if r == self && rng.Intn(2) == 0 || rng.Intn(10) < 3 {
				continue
			}
			var l float64
			switch rng.Intn(6) {
			case 0:
				l = 0
			case 1:
				l = ave
			case 2:
				l = ave + rng.Float64()*ave
			case 3:
				l = top
			default:
				l = rng.Float64() * ave
			}
			load[r] = l
			if r != self {
				last = r
			}
		}
		if last >= 0 && rng.Intn(2) == 0 {
			// A trailing zero-mass candidate: the last one at the maximum.
			load[last] = top
		}
		know := NewKnowledge(numRanks)
		for r := Rank(0); int(r) < numRanks; r++ {
			if l, ok := load[r]; ok {
				know.Add(r, l)
			}
		}
		t.Run("", func(t *testing.T) {
			c := new(CMF)
			ok := c.Build(know, self, ave, kind)
			check(t, c, ok, know, load, self, ave, kind, int64(trial))
			for step := 0; ok && step < 8; step++ {
				var i int
				if rng.Intn(2) == 0 {
					_, i = c.Sample(rng) // a recipient, as the transfer stage raises
				} else {
					i = rng.Intn(c.Len()) // any candidate, zero mass included
				}
				from := load[c.Rank(i)]
				var to float64
				switch rng.Intn(3) {
				case 0:
					to = from + rng.Float64()*ave/4
				case 1:
					to = max(from, c.ls) // exactly to l_s
				default:
					to = max(from, c.ls) + rng.Float64()*ave // past l_s
				}
				load[c.Rank(i)] = to
				c.Raise(i, from, to)
				ok = c.hasMass()
				check(t, c, ok, know, load, self, ave, kind, int64(trial*100+step))
			}
		})
	}
}

// TestRebuildMatchesBuild: after a pass of accepted transfers, Rebuild
// over the CMF's own loads is bit for bit the CMF a fresh Build gives over
// a knowledge whose table holds those loads — the same candidates, tree,
// l_s, total mass and zero-mass bitset — for both kinds, self a member or
// not, with the CMF raised per transfer or not. This is what keeps the
// multi-pass tables byte-identical to rebuilding from the knowledge.
func TestRebuildMatchesBuild(t *testing.T) {
	const numRanks = 300
	rng := rand.New(rand.NewSource(13))
	for _, kind := range []CMFKind{CMFOriginal, CMFModified} {
		for _, recompute := range []bool{false, true} {
			for _, selfKnown := range []bool{false, true} {
				cfg := Grapevine()
				cfg.CMF, cfg.RecomputeCMF = kind, recompute
				if kind == CMFModified {
					cfg.Criterion = CriterionRelaxed
				}
				accepted := 0
				for trial := 0; trial < 20; trial++ {
					ave := 0.5 + rng.Float64()
					self := Rank(rng.Intn(numRanks))
					know := NewKnowledge(numRanks)
					for r := Rank(0); int(r) < numRanks; r++ {
						if r == self && selfKnown || r != self && rng.Intn(4) == 0 {
							know.Add(r, rng.Float64()*2*ave)
						}
					}
					tasks := tasksFromLoads(0.3, 0.1, 0.5, 0.2, 0.4, 0.3, 0.1, 0.2)
					var scr TransferScratch
					scr.tasks = append(scr.tasks[:0], tasks...)
					selfLoad, st := 2*ave+1, TransferStats{}
					n, _ := transferPass(0, self, scr.tasks, &selfLoad, ave, know, &cfg, rng, &scr, &st)
					if n == 0 {
						continue
					}
					accepted++
					// The knowledge the next pass would read if line 12 wrote
					// it: every rank at the load the pass scheduled it.
					updated := NewKnowledge(numRanks)
					for _, e := range scheduledLoads(t, know, tasks, scr.proposals) {
						updated.Add(e.Rank, e.Load)
					}
					got := scr.cmf
					gotOK := got.Rebuild()
					var want CMF
					wantOK := want.Build(updated, self, ave, kind)
					sameCMF(t, &got, gotOK, &want, wantOK)
				}
				if accepted == 0 {
					t.Fatalf("%v recompute=%v self known=%v: no pass accepted a transfer", kind, recompute, selfKnown)
				}
			}
		}
	}
}

// sameCMF fails unless got and want are bitwise one CMF.
func sameCMF(t *testing.T, got *CMF, gotOK bool, want *CMF, wantOK bool) {
	t.Helper()
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	if gotOK != wantOK || math.Float64bits(got.ls) != math.Float64bits(want.ls) {
		t.Fatalf("Rebuild: ok %v, l_s %v; Build: ok %v, l_s %v", gotOK, got.ls, wantOK, want.ls)
	}
	if !slices.Equal(got.ranks, want.ranks) || !slices.Equal(bits(got.load), bits(want.load)) {
		t.Fatalf("Rebuild has candidates %v at %v, Build %v at %v", got.ranks, got.load, want.ranks, want.load)
	}
	if !wantOK {
		return
	}
	words := (len(want.ranks) + 63) / 64
	if !slices.Equal(bits(got.tree), bits(want.tree)) || math.Float64bits(got.z) != math.Float64bits(want.z) ||
		!slices.Equal(got.zero[:words], want.zero[:words]) || got.live != want.live {
		t.Fatalf("Rebuild's tree %v, z %v, zero %b; Build's %v, %v, %b",
			got.tree, got.z, got.zero[:words], want.tree, want.z, want.zero[:words])
	}
}

// TestCMFNearestLive pins where Sample steps to when rounding lands it on
// a zero-mass candidate: the first live one after it, else the last
// before it.
func TestCMFNearestLive(t *testing.T) {
	k := knowledgeFrom(t, RankLoad{0, 0}, RankLoad{1, 4}, RankLoad{2, 5}, RankLoad{3, 1}, RankLoad{4, 4})
	c, ok := buildCMF(k, 9, 4, CMFOriginal)
	if !ok {
		t.Fatal("Build failed")
	}
	for i, want := range []int{1, 3, 3, 3, 3} {
		if !c.isZero(i) {
			continue
		}
		if got := c.nearestLive(i); got != want {
			t.Errorf("nearestLive(%d) = %d, want %d", i, got, want)
		}
	}
}
