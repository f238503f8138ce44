package serve

import (
	"runtime"
	"runtime/debug"
	"testing"

	"temperedlb/internal/amt"
)

// TestServiceSoak: a long-lived service rank allocates no more per phase
// late in its life than early in it. Workload C's service — the burst
// scenario under the forecast trigger, 32 items per rank — runs for
// 2 000 phases on 4 memory ranks, and the process's TotalAlloc is read
// at the end of every phase. Phases 1 500–2 000 are held to phases
// 500–1 000 on two rates, each allowed 5 % growth:
//
//   - bytes per quiet phase, one skipped after a skipped phase: the
//     service loop, the load model and the runtime's phase and
//     collective paths;
//   - bytes per invocation: the other phases' — each fired phase and the
//     one after it, whose load model meets the objects that arrived —
//     over the fired phases.
//
// Bytes per phase of a whole window is logged but not gated: it follows
// how many of the window's phases fire — an 8-rank run of this scenario
// read 20 % more per phase late than early, with nothing growing. Work
// that grows with the phases served — a list copied whole at every
// phase or invocation while it keeps growing — fails one of the two; a
// structure that stops growing before phase 500 does not show.
//
// The collector is off while the service runs: a collection empties the
// runtime's pools, and their refill would land in whichever window it
// fell. Under the race detector the service runs its 2 000 phases
// unmeasured: there a quiet phase's bytes wander by 7 % from run to run.
func TestServiceSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 2 000-phase service")
	}
	const ranks, phases = 4, 2000
	cfg := Config{
		Scenario: Spec{Kind: KindBurst, Ranks: ranks, Phases: phases, Items: 32 * ranks, Seed: 11},
		Trigger:  TriggerSpec{Family: "forecast"},
		LBCost:   20,
	}
	if raceDetector {
		if res := runService(t, "memory", 1, cfg)[0]; res.Fires == 0 {
			t.Fatal("no phase fired")
		}
		return
	}
	// alloc[p] is TotalAlloc once every rank has ended phase p-1.
	alloc := make([]uint64, phases+1)
	var ms runtime.MemStats
	afterPhase = func(rc *amt.Context, p int) {
		rc.Barrier()
		if rc.Rank() == 0 {
			runtime.ReadMemStats(&ms)
			alloc[p+1] = ms.TotalAlloc
		}
	}
	defer func() { afterPhase = nil }()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rows := runService(t, "memory", 1, cfg)[0].Rows

	type rates struct {
		quiet, fires                int
		perPhase, perQuiet, perFire float64
	}
	window := func(lo, hi int) rates {
		var w rates
		var quiet, fired uint64
		for p := lo; p < hi; p++ {
			b := alloc[p+1] - alloc[p]
			if rows[p].Fired {
				w.fires++
			}
			if rows[p].Fired || rows[p-1].Fired {
				fired += b
			} else {
				w.quiet++
				quiet += b
			}
		}
		w.perPhase = float64(alloc[hi]-alloc[lo]) / float64(hi-lo)
		w.perQuiet = float64(quiet) / float64(w.quiet)
		w.perFire = float64(fired) / float64(w.fires)
		return w
	}
	early, late := window(500, 1000), window(1500, 2000)
	for _, w := range []struct {
		name string
		rates
	}{{"500–1000", early}, {"1500–2000", late}} {
		t.Logf("phases %-9s %5.0f B/phase; %3d quiet at %4.0f B; %3d fired at %5.0f B",
			w.name, w.perPhase, w.quiet, w.perQuiet, w.fires, w.perFire)
	}
	if early.fires == 0 || late.fires == 0 || early.quiet == 0 || late.quiet == 0 {
		t.Fatal("want quiet and fired phases in both windows")
	}
	if late.perQuiet > 1.05*early.perQuiet {
		t.Errorf("a quiet phase allocates %.0f B at phases 1500–2000, %.0f B at 500–1000: more than 5 %% growth",
			late.perQuiet, early.perQuiet)
	}
	if late.perFire > 1.05*early.perFire {
		t.Errorf("an invocation allocates %.0f B at phases 1500–2000, %.0f B at 500–1000: more than 5 %% growth",
			late.perFire, early.perFire)
	}
}
