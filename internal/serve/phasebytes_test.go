package serve

import (
	"runtime"
	"testing"
)

// TestServicePhaseBytes: a phase the trigger skips allocates per rank
// only the row it logs and its trigger's verdict — no phase map, no
// arrivals slice, no copy of the rank's object ids or of the model's. A
// 64-rank memory service run on workload C's scenario with a trigger
// that never fires is measured at two phase counts; the difference of
// the two runs' runtime.MemStats.TotalAlloc over the difference of
// their phases is the steady state's bytes per phase, with setup and
// scenario construction cancelled out.
//
// The gate: on a 2-core x86-64 VM the measurement read 147.7–148.2 KB
// per phase before each rank kept one phase map (a fresh map per rank
// per phase, regrown in RecordWork), 44.0–44.5 KB after it, and
// 8.1–8.5 KB (13.7–14.0 KB under -race) once the phase loop read the
// rank's ids into a buffer of its own and the load model summed its
// predictions in place; 16 KiB is twice the last and well below the
// one before.
func TestServicePhaseBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two 64-rank services")
	}
	const short, long = 20, 60
	run := func(phases int) uint64 {
		cfg := Config{
			Scenario: Spec{Kind: KindBurst, Ranks: 64, Phases: phases, Items: 2048, Seed: 45},
			Trigger:  TriggerSpec{Family: "threshold", Threshold: 1e9},
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := runService(t, "memory", 1, cfg)
		runtime.ReadMemStats(&after)
		if res[0].Fires != 0 {
			t.Fatalf("the trigger fired %d times; want a run of skipped phases", res[0].Fires)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	run(short) // warm the process: handler tables, pools, first-use growth
	perPhase := (int64(run(long)) - int64(run(short))) / (long - short)
	t.Logf("a skipped 64-rank phase allocates %d B", perPhase)
	if perPhase > 16<<10 {
		t.Errorf("a skipped 64-rank phase allocates %d B, want ≤ 16 KiB", perPhase)
	}
}
