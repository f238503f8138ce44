package tempered

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"temperedlb/internal/amt"
	"temperedlb/internal/core"
	"temperedlb/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// workingSetGolden is what TestDistributedWorkingSetGolden pins: the
// protocol-determined result (the same on every rank but for the two
// migration counters, recorded per rank) and the object ids each rank
// hosts after the commit epoch.
type workingSetGolden struct {
	Result         DistResult
	Migrations     []int
	MigrationBytes []int
	Placed         [][]amt.ObjectID
}

// TestDistributedWorkingSetGolden holds the balancer to results recorded
// before its working distributions became id-ordered slices: the §V-B
// light/heavy mixture (non-dyadic loads, so any change of summation
// order shows) clustered on 4 of 64 ranks, Rounds 1 so every field is
// protocol-determined. Trajectories, best pick, per-rank migration
// counts and the committed placement must all match to the bit; JSON
// renders a float64 as its shortest round-trip decimal, so comparing
// bytes compares bits. Regenerate with -update-golden only for an
// intended protocol change; the one re-recording so far changed the four
// non-zero MigrationBytes entries and nothing else, when a state's size
// became what the wire codec writes (10 bytes for a *colorState: the
// payload id and one F64) instead of a gob stream with its type
// descriptor (≈150).
func TestDistributedWorkingSetGolden(t *testing.T) {
	const nRanks = 64
	a, err := workload.Generate(workload.Spec{
		NumRanks: nRanks, NumTasks: 1200,
		Placement: workload.PlaceClustered, LoadedRanks: 4,
		Loads: workload.LoadMixture, HeavyFraction: 0.2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Tempered()
	cfg.Rounds = 1
	cfg.Trials = 2
	cfg.Iterations = 4
	cfg.Seed = 3

	results := make([]DistResult, nRanks)
	got := workingSetGolden{
		Migrations:     make([]int, nRanks),
		MigrationBytes: make([]int, nRanks),
		Placed:         make([][]amt.ObjectID, nRanks),
	}
	rt := amt.New(nRanks)
	h := RegisterHandlers(rt, 100)
	rt.Run(func(rc *amt.Context) {
		loads := make(map[amt.ObjectID]float64)
		for _, task := range a.TasksOf(rc.Rank()) {
			loads[rc.CreateObject(&colorState{Load: task.Load})] = task.Load
		}
		rc.Barrier()
		res, err := RunDistributed(rc, h, cfg, loads)
		if err != nil {
			t.Errorf("rank %d: %v", rc.Rank(), err)
			return
		}
		rc.Barrier()
		got.Migrations[rc.Rank()], got.MigrationBytes[rc.Rank()] = res.Migrations, res.MigrationBytes
		res.Migrations, res.MigrationBytes = 0, 0
		results[rc.Rank()] = res.StripTiming()
		got.Placed[rc.Rank()] = rc.LocalObjects()
	})
	if t.Failed() {
		return
	}
	got.Result = results[0]
	if got.Result.TransferMessages == 0 || got.Result.BestIteration == 0 {
		t.Fatalf("vacuous run: %+v", got.Result)
	}
	for r, res := range results {
		if !reflect.DeepEqual(res, got.Result) {
			t.Fatalf("rank %d reports %+v, rank 0 %+v", r, res, got.Result)
		}
	}

	out, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	path := filepath.Join("testdata", "workingset.golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if !bytes.Equal(out, want) {
		t.Fatalf("results differ from %s (recorded from the map-based balancer):\n%s", path, firstDiff(out, want))
	}
}

// firstDiff quotes the first line at which two renderings part.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte{'\n'}), bytes.Split(want, []byte{'\n'})
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d: got %q, golden %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, golden %d", len(g), len(w))
}
