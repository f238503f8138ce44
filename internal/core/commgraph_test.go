package core

import (
	"math"
	"math/rand"
	"testing"
)

func TestCommGraphConnectAccumulates(t *testing.T) {
	g := NewCommGraph(4)
	g.Connect(0, 1, 2)
	g.Connect(1, 0, 3) // symmetric accumulation
	g.Connect(0, 0, 5) // self edge ignored
	g.Connect(0, 2, 0) // zero volume ignored
	g.Connect(0, 3, -1)

	edges := g.Edges(0)
	if len(edges) != 1 || edges[0].Peer != 1 || edges[0].Volume != 5 {
		t.Errorf("edges(0) = %v", edges)
	}
	if got := g.TotalVolume(); got != 5 {
		t.Errorf("TotalVolume = %g", got)
	}
}

func TestCommGraphRemoteVolume(t *testing.T) {
	g := NewCommGraph(4)
	g.Connect(0, 1, 2)
	g.Connect(2, 3, 4)
	g.Connect(0, 3, 1)

	owners := []Rank{0, 0, 1, 1}
	// Edge 0-1 local, 2-3 local, 0-3 remote.
	if got := g.RemoteVolume(owners); got != 1 {
		t.Errorf("RemoteVolume = %g, want 1", got)
	}
	allSame := []Rank{5, 5, 5, 5}
	if got := g.RemoteVolume(allSame); got != 0 {
		t.Errorf("colocated RemoteVolume = %g", got)
	}
	allDiff := []Rank{0, 1, 2, 3}
	if got := g.RemoteVolume(allDiff); got != g.TotalVolume() {
		t.Errorf("scattered RemoteVolume = %g, want %g", got, g.TotalVolume())
	}
}

func TestCommGraphAffinity(t *testing.T) {
	g := NewCommGraph(5)
	g.Connect(0, 1, 2)
	g.Connect(0, 2, 3)
	g.Connect(0, 3, 4)
	owners := []Rank{9, 7, 7, 8, 8}
	aff := g.Affinity(0, owners)
	if aff[7] != 5 || aff[8] != 4 {
		t.Errorf("Affinity = %v", aff)
	}
	if _, ok := aff[9]; ok {
		t.Error("affinity to a rank with no partners present")
	}
}

func TestCommGraphPanicsOutOfRange(t *testing.T) {
	g := NewCommGraph(2)
	mustPanic(t, "Edges", func() { g.Edges(5) })
	mustPanic(t, "Connect", func() { g.Connect(0, 5, 1) })
	mustPanic(t, "RemoteVolume short owners", func() { g.RemoteVolume([]Rank{0}) })
}

func TestCMFBlendProperties(t *testing.T) {
	k := knowledgeFrom(t, RankLoad{0, 0}, RankLoad{1, 1}, RankLoad{2, 2})
	base, ok := buildCMF(k, 9, 4, CMFOriginal)
	if !ok {
		t.Fatal("base CMF failed")
	}
	// Zero bias or zero weights: unchanged.
	same := base.Blend(func(r Rank) float64 { return 0 }, 0.5)
	for i := 0; i < base.Len(); i++ {
		if same.Prob(i) != base.Prob(i) {
			t.Error("zero-weight blend changed mass")
		}
	}
	// Full-ish bias concentrates on the weighted rank.
	heavy := base.Blend(func(r Rank) float64 {
		if r == 2 {
			return 1
		}
		return 0
	}, 0.9)
	if heavy.Prob(2) < 0.9 {
		t.Errorf("blended prob to favored rank = %g", heavy.Prob(2))
	}
	// Blended CMF remains a valid distribution.
	prev := 0.0
	for i := 0; i < heavy.Len(); i++ {
		if heavy.Prob(i) < -1e-12 || heavy.cum(i) < prev {
			t.Fatal("blend broke CMF validity")
		}
		prev = heavy.cum(i)
	}
	if math.Abs(heavy.cum(heavy.Len()-1)-1) > 1e-12 {
		t.Error("blend does not end at 1")
	}
}

// commClusteredWorkload builds tasks in communicating cliques, all
// placed on a few ranks: balancing must spread the load while the
// comm-aware mode should keep cliques together.
func commClusteredWorkload(seed int64) (*Assignment, *CommGraph) {
	rng := rand.New(rand.NewSource(seed))
	const ranks, cliques, perClique = 24, 30, 8
	a := NewAssignment(ranks)
	g := NewCommGraph(cliques * perClique)
	for c := 0; c < cliques; c++ {
		var ids []TaskID
		for i := 0; i < perClique; i++ {
			ids = append(ids, a.Add(0.3+rng.Float64(), Rank(rng.Intn(3))))
		}
		for i := 0; i < perClique; i++ {
			for j := i + 1; j < perClique; j++ {
				g.Connect(ids[i], ids[j], 1)
			}
		}
	}
	return a, g
}

// TestCommBiasReducesRemoteVolume is the headline test of the §VII
// extension: with the same refinement budget, biased recipient
// selection achieves lower cross-rank communication at comparable
// imbalance.
func TestCommBiasReducesRemoteVolume(t *testing.T) {
	run := func(bias float64) *Result {
		a, g := commClusteredWorkload(5)
		cfg := EngineConfig{Config: Tempered()}
		cfg.Trials, cfg.Iterations = 3, 6
		cfg.Rounds, cfg.Fanout = 4, 3
		cfg.CommBias = bias
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunWithComm(a, g)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(0)
	aware := run(0.7)
	if aware.RemoteVolumeAfter >= plain.RemoteVolumeAfter {
		t.Errorf("comm bias did not reduce remote volume: %g vs %g",
			aware.RemoteVolumeAfter, plain.RemoteVolumeAfter)
	}
	// Imbalance must stay in the same ballpark (bias trades some I for
	// locality, not all of it).
	if aware.FinalImbalance > plain.FinalImbalance*3+0.5 {
		t.Errorf("comm bias destroyed balance: I %g vs %g",
			aware.FinalImbalance, plain.FinalImbalance)
	}
	// Both still improve on the input.
	if aware.FinalImbalance >= aware.InitialImbalance/2 {
		t.Errorf("comm-aware run failed to balance: %g -> %g",
			aware.InitialImbalance, aware.FinalImbalance)
	}
}

func TestRunWithCommReportsVolumes(t *testing.T) {
	a, g := commClusteredWorkload(6)
	cfg := EngineConfig{Config: Tempered()}
	cfg.Trials, cfg.Iterations = 1, 2
	cfg.Rounds, cfg.Fanout = 3, 3
	eng, _ := NewEngine(cfg)
	res, err := eng.RunWithComm(a, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemoteVolumeBefore != g.RemoteVolume(a.Owners()) {
		t.Error("RemoteVolumeBefore mismatch")
	}
	res.Apply(a)
	if math.Abs(res.RemoteVolumeAfter-g.RemoteVolume(a.Owners())) > 1e-9 {
		t.Error("RemoteVolumeAfter does not match applied distribution")
	}
}

func TestRunWithoutCommReportsZero(t *testing.T) {
	a := clusteredAssignment(16, 2, 50, 7)
	eng, _ := NewEngine(smallTempered())
	res, _ := eng.Run(a)
	if res.RemoteVolumeBefore != 0 || res.RemoteVolumeAfter != 0 {
		t.Error("volumes reported without a graph")
	}
}

func TestConfigValidatesCommBias(t *testing.T) {
	cfg := EngineConfig{Config: Tempered()}
	cfg.CommBias = 1.0
	if err := cfg.Validate(); err == nil {
		t.Error("CommBias=1 accepted")
	}
	cfg.CommBias = -0.1
	if err := cfg.Validate(); err == nil {
		t.Error("negative CommBias accepted")
	}
	cfg.CommBias = 0.5
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid CommBias rejected: %v", err)
	}
}
