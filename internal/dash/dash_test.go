package dash

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"temperedlb/internal/amt"
	"temperedlb/internal/core"
	"temperedlb/internal/lb/tempered"
	"temperedlb/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if string(want) != string(got) {
		t.Errorf("%s mismatch:\n--- want ---\n%s\n--- got ---\n%s", name, want, got)
	}
}

// fixtureFrames is a synthetic three-frame window: a skewed start, a
// partial improvement, and a near-balanced finish, with cumulative
// counters and timestamps set so the rates panel divides by one second.
func fixtureFrames() []obs.Snapshot {
	mk := func(seq int64, timeMs float64, phase string, trial, iter int, loads []float64) obs.Snapshot {
		f := obs.Snapshot{
			Seq: seq, TimeMs: timeMs, Source: "distributed", Phase: phase,
			Trial: trial, Iteration: iter, Loads: loads,
			GossipMsgs: 40 * seq, GossipEntries: 200 * seq, TransferMsgs: 10 * seq,
			Msgs: 100 * seq, Bytes: 4096 * seq,
			Dropped: 2 * seq, Duplicated: seq, Retries: 3 * seq, DupDrops: seq,
			Collectives: 5 * seq, Epochs: 2 * seq, IterMs: 12.5,
		}
		f.FillLoadStats()
		return f
	}
	return []obs.Snapshot{
		mk(1, 0, "init", 0, 0, []float64{8, 0, 0, 0, 4, 0, 0, 0}),
		mk(2, 500, "iter", 1, 1, []float64{5, 1, 1, 1, 2, 1, 1, 0}),
		mk(3, 1000, "iter", 1, 2, []float64{2, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1}),
	}
}

// TestRenderGolden pins the full layout, Unicode and ASCII, at a fixed
// width.
func TestRenderGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ascii bool
	}{{"render_unicode.golden", false}, {"render_ascii.golden", true}} {
		lines := Render(Model{Frames: fixtureFrames(), Width: 72, ASCII: tc.ascii})
		checkGolden(t, tc.name, []byte(strings.Join(lines, "\n")+"\n"))
	}
}

// TestRenderEdgeCases checks the degenerate shapes a live poller hits:
// no frames yet, a single frame (totals instead of rates), a missing
// load vector, and rank counts wider than the terminal.
func TestRenderEdgeCases(t *testing.T) {
	if got := Render(Model{}); len(got) != 1 || !strings.Contains(got[0], "waiting") {
		t.Errorf("empty model render = %q", got)
	}

	one := fixtureFrames()[:1]
	lines := Render(Model{Frames: one, Width: 60})
	if len(lines) != 6 {
		t.Fatalf("got %d lines, want 6", len(lines))
	}
	if !strings.Contains(lines[4], "total") {
		t.Errorf("single frame should report totals, got %q", lines[4])
	}
	for i, l := range lines {
		if n := len([]rune(l)); n > 60 {
			t.Errorf("line %d is %d runes wide: %q", i, n, l)
		}
	}

	noLoads := one[0]
	noLoads.Loads = nil
	if lines := Render(Model{Frames: []obs.Snapshot{noLoads}}); !strings.Contains(lines[2], "no load vector") {
		t.Errorf("missing loads not flagged: %q", lines[2])
	}

	wide := one[0]
	wide.Loads = make([]float64, 1024)
	for i := range wide.Loads {
		wide.Loads[i] = float64(i % 7)
	}
	wide.FillLoadStats()
	lines = Render(Model{Frames: []obs.Snapshot{wide}, Width: 40})
	if n := len([]rune(lines[2])); n > 40 {
		t.Errorf("1024 ranks not folded to width: %d runes", n)
	}
	// Bucketing is by max: the hottest value must survive folding.
	if !strings.ContainsRune(lines[2], '█') {
		t.Errorf("hot rank lost by folding: %q", lines[2])
	}
}

// TestObsSmoke is the end-to-end smoke path behind `make obs-smoke`: a
// short distributed run on the real runtime records frames through the
// stream, the frames are normalized (wall-clock and scheduling-
// dependent fields zeroed) and replayed through the renderer, and the
// resulting layout is pinned as a golden. It fails if the protocol's
// frame content, the frame schema, or the layout drifts. The 8-rank job
// streams its exact load vector; the 1024-rank one streams the 64 cells
// of an obs.LoadSummary.
func TestObsSmoke(t *testing.T) {
	for _, tc := range []struct {
		ranks, hot int
		golden     string
	}{
		{8, 2, "obs_smoke.golden"},
		{1024, 16, "obs_smoke_1024.golden"},
	} {
		stream := obs.NewStream(obs.DefaultStreamCapacity)
		rt := amt.New(tc.ranks)
		rt.SetStream(stream)
		h := tempered.RegisterHandlers(rt, 100)
		cfg := core.Tempered()
		// Rounds must stay 1: multi-round gossip forwarding depends on
		// arrival timing, which would make GossipMsgs scheduling-dependent
		// and the golden flaky (same determinism boundary as the chaos
		// identity tests). Dyadic loads keep the FP statistics exact.
		cfg.Trials, cfg.Iterations, cfg.Rounds = 2, 2, 1
		cfg.Seed = 42

		var mu sync.Mutex
		rt.Run(func(rc *amt.Context) {
			loads := make(map[amt.ObjectID]float64)
			if int(rc.Rank()) < tc.hot {
				for i := 0; i < 16; i++ {
					l := float64(i%8+1) / 8
					id := rc.CreateObject(l)
					loads[id] = l
				}
			}
			rc.Barrier()
			_, err := tempered.RunDistributed(rc, h, cfg, loads)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				t.Errorf("rank %d: %v", rc.Rank(), err)
			}
		})

		frames := stream.Frames()
		want := 1 + cfg.Trials*cfg.Iterations + 1
		if len(frames) != want {
			t.Fatalf("%d ranks: recorded %d frames, want %d", tc.ranks, len(frames), want)
		}
		// Zero the fields that depend on wall clock or goroutine scheduling
		// (timing, transport volume, termination-token rounds ride Msgs);
		// everything else is bit-deterministic and safe to pin.
		for i := range frames {
			frames[i].TimeMs = 0
			frames[i].IterMs = 0
			frames[i].Msgs, frames[i].Bytes = 0, 0
		}
		lines := Render(Model{Frames: frames, Width: 72})
		checkGolden(t, tc.golden, []byte(strings.Join(lines, "\n")+"\n"))
	}
}
