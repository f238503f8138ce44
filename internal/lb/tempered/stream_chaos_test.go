package tempered

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"temperedlb/internal/amt"
	"temperedlb/internal/comm"
	"temperedlb/internal/obs"
)

// runStreamCase mirrors runChaosCase with a frame stream attached to the
// runtime, returning the published frames alongside the per-rank results.
func runStreamCase(t *testing.T, nRanks, hot, objsPerHot int, sp *comm.FaultSpec) ([]DistResult, []obs.Snapshot) {
	t.Helper()
	cfg := distConfig()
	cfg.Rounds = 1
	rt := amt.New(nRanks)
	stream := obs.NewStream(obs.DefaultStreamCapacity)
	rt.SetStream(stream)
	if sp != nil {
		if err := rt.SetFaults(*sp); err != nil {
			t.Fatal(err)
		}
	}
	h := RegisterHandlers(rt, 100)
	results := make([]DistResult, nRanks)
	var mu sync.Mutex

	rt.Run(func(rc *amt.Context) {
		loads := make(map[amt.ObjectID]float64)
		if int(rc.Rank()) < hot {
			for i := 0; i < objsPerHot; i++ {
				l := dyadicLoad(int(rc.Rank()), i, objsPerHot)
				id := rc.CreateObject(&colorState{Load: l})
				loads[id] = l
			}
		}
		rc.Barrier()
		res, err := RunDistributed(rc, h, cfg, loads)
		if err != nil {
			t.Errorf("rank %d: %v", rc.Rank(), err)
			return
		}
		mu.Lock()
		results[rc.Rank()] = res
		mu.Unlock()
	})
	return results, stream.Frames()
}

// stripVolatileFrame zeroes the frame fields that legitimately depend on
// wall clock, goroutine scheduling or fault activity — timestamps,
// transport volume (retries and termination-token rounds vary with
// timing) and the injection counters — leaving the protocol-determined
// content for exact comparison.
func stripVolatileFrame(f obs.Snapshot) obs.Snapshot {
	f.TimeMs = 0
	f.IterMs = 0
	f.Msgs, f.Bytes = 0, 0
	f.Dropped, f.Duplicated, f.Retries, f.DupDrops = 0, 0, 0, 0
	f.WireBytesOut, f.WireBytesIn, f.WirePeers = 0, 0, 0
	return f
}

// TestDistributedZeroLoadResult pins the zero-iteration shape: a run
// where no rank has any load takes the early return after the prologue
// — no history rows, zero imbalances, no transfers — and with a stream
// attached still publishes exactly the init frame, which survives an
// NDJSON round trip.
func TestDistributedZeroLoadResult(t *testing.T) {
	results, frames := runStreamCase(t, 6, 0, 0, nil)
	for r, res := range results {
		if len(res.History) != 0 || res.InitialImbalance != 0 ||
			res.FinalImbalance != 0 || res.GossipMessages != 0 ||
			res.TransferMessages != 0 || res.Migrations != 0 {
			t.Errorf("rank %d: zero-load result not empty: %+v", r, res)
		}
	}
	if len(frames) != 1 || frames[0].Phase != "init" {
		t.Fatalf("zero-load run published %d frames (want 1 init): %+v", len(frames), frames)
	}
	if frames[0].Ranks != 6 || len(frames[0].Loads) != 6 || frames[0].Imbalance != 0 {
		t.Errorf("init frame malformed: %+v", frames[0])
	}
	for i, l := range frames[0].Loads {
		if l != 0 {
			t.Errorf("zero-load init frame has load %v in cell %d", l, i)
		}
	}
	var buf bytes.Buffer
	if err := obs.WriteSnapshots(&buf, frames); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadSnapshots(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(frames, back) {
		t.Errorf("NDJSON round trip changed the frame:\nin:  %+v\nout: %+v", frames, back)
	}
}

// TestDistributedStreamingChaosIdentity pins two contracts at once:
// attaching a frame stream must not change any balancing decision, and
// the faulted==fault-free identity must survive with streaming enabled —
// including the frame contents themselves, up to timing and transport
// volume.
func TestDistributedStreamingChaosIdentity(t *testing.T) {
	cfg := distConfig()
	cfg.Rounds = 1
	bare, _, _ := runChaosCase(t, 10, 2, 32, cfg, nil, dyadicLoad)
	clean, cleanFrames := runStreamCase(t, 10, 2, 32, nil)
	sp := &comm.FaultSpec{
		Seed: 7, Drop: 0.1, Dup: 0.1,
		DelayMax: time.Millisecond,
	}
	faulted, faultedFrames := runStreamCase(t, 10, 2, 32, sp)

	for r := range bare {
		if !reflect.DeepEqual(stripTiming(bare[r]), stripTiming(clean[r])) {
			t.Errorf("rank %d: attaching a stream changed the outcome", r)
		}
		c, f := stripTiming(clean[r]), stripTiming(faulted[r])
		if !reflect.DeepEqual(c, f) {
			t.Errorf("rank %d diverged under faults with streaming:\nclean:   %+v\nfaulted: %+v", r, c, f)
		}
	}

	wantFrames := 1 + cfg.Trials*cfg.Iterations + 1 // init + iters + commit
	if len(cleanFrames) != wantFrames {
		t.Fatalf("clean run published %d frames, want %d", len(cleanFrames), wantFrames)
	}
	if len(faultedFrames) != len(cleanFrames) {
		t.Fatalf("frame counts differ: clean %d, faulted %d",
			len(cleanFrames), len(faultedFrames))
	}
	if cleanFrames[0].Phase != "init" || cleanFrames[len(cleanFrames)-1].Phase != "commit" {
		t.Errorf("frame phases malformed: first %q, last %q",
			cleanFrames[0].Phase, cleanFrames[len(cleanFrames)-1].Phase)
	}
	for i := range cleanFrames {
		c, f := stripVolatileFrame(cleanFrames[i]), stripVolatileFrame(faultedFrames[i])
		if !reflect.DeepEqual(c, f) {
			t.Errorf("frame %d diverged under faults:\nclean:   %+v\nfaulted: %+v", i, c, f)
		}
	}

	commit := cleanFrames[len(cleanFrames)-1]
	if commit.Imbalance != clean[0].FinalImbalance {
		t.Errorf("commit frame imbalance %g, want final %g",
			commit.Imbalance, clean[0].FinalImbalance)
	}
	migs := int64(0)
	for _, r := range clean {
		migs += int64(r.Migrations)
	}
	if commit.Migrations != migs {
		t.Errorf("commit frame migrations %d, want %d", commit.Migrations, migs)
	}
}
