package tempered

import (
	"reflect"
	"testing"

	"temperedlb/internal/amt"
	"temperedlb/internal/obs"
)

// TestOneNodeWatching is the PR 7 deadlock scenario: a stream attached
// on one node of a multi-process job, which no rank of the other node
// can see. Two unix-socket nodes, the watcher on node 1 and then on node
// 0: the job finishes, every rank's result equals the unwatched
// memory-transport run, and the watching node — whichever it is —
// receives every frame, with the loads the memory-transport run streams.
func TestOneNodeWatching(t *testing.T) {
	const nRanks, hot, objsPerHot = 10, 2, 12
	cfg := crossTransportConfig()
	baseline := runOnTransport(t, "memory", nRanks, hot, objsPerHot, nil)
	_, memFrames := runStreamCase(t, nRanks, hot, objsPerHot, nil)
	wantFrames := 1 + cfg.Trials*cfg.Iterations + 1
	if len(memFrames) != wantFrames {
		t.Fatalf("memory run published %d frames, want %d", len(memFrames), wantFrames)
	}

	for _, watching := range []int{1, 0} {
		stream := obs.NewStream(obs.DefaultStreamCapacity)
		got := runNodes(t, "unix", 2, nRanks, hot, objsPerHot, func(node int, rt *amt.Runtime) {
			if node == watching {
				rt.SetStream(stream)
			}
		})
		for r := range baseline {
			if want, have := baseline[r].StripTiming(), got[r].StripTiming(); !reflect.DeepEqual(want, have) {
				t.Errorf("watcher on node %d: rank %d diverges from the memory transport:\nmemory: %+v\nunix:   %+v",
					watching, r, want, have)
			}
		}
		frames := stream.Frames()
		if len(frames) != wantFrames {
			t.Fatalf("watcher on node %d: stream holds %d frames, want %d", watching, len(frames), wantFrames)
		}
		for i := range frames {
			// A wired rank has taken one collective more: Watched's.
			have, want := stripVolatileFrame(frames[i]), stripVolatileFrame(memFrames[i])
			have.Collectives, want.Collectives = 0, 0
			if !reflect.DeepEqual(have, want) {
				t.Errorf("watcher on node %d: frame %d differs from the memory transport's:\nmemory: %+v\nunix:   %+v",
					watching, i, want, have)
			}
		}
	}
}

// collectiveNames records, per rank, the names of the collectives the
// rank took, in order. Each rank appends only to its own slot.
type collectiveNames [][]string

func (c collectiveNames) Emit(e obs.Event) {
	if e.Type == obs.EvCollective {
		c[e.Rank] = append(c[e.Rank], e.Name)
	}
}

// TestStreamPresenceChangesNothing: a watched run takes, on every rank,
// exactly the unwatched run's collectives — same names, same order —
// followed by the one scalar of the commit frame, and reports the same
// History.
func TestStreamPresenceChangesNothing(t *testing.T) {
	const nRanks, hot, objsPerHot = 10, 2, 12
	run := func(stream *obs.Stream) ([]DistResult, collectiveNames) {
		names := make(collectiveNames, nRanks)
		res := runNodes(t, "memory", 1, nRanks, hot, objsPerHot, func(_ int, rt *amt.Runtime) {
			rt.SetTracer(names)
			rt.SetStream(stream)
		})
		return res, names
	}
	bare, bareNames := run(nil)
	watched, watchedNames := run(obs.NewStream(obs.DefaultStreamCapacity))
	for r := 0; r < nRanks; r++ {
		if !reflect.DeepEqual(bare[r].StripTiming(), watched[r].StripTiming()) {
			t.Errorf("rank %d: a stream changed the result:\nbare:    %+v\nwatched: %+v", r, bare[r], watched[r])
		}
		want := append(append([]string(nil), bareNames[r]...), "allreduce")
		if !reflect.DeepEqual(watchedNames[r], want) {
			t.Errorf("rank %d: watched run took collectives %v, want the bare run's plus one scalar: %v",
				r, watchedNames[r], want)
		}
	}
}
