package lbaf

import (
	"fmt"
	"strings"
	"testing"

	"temperedlb/internal/core"
	"temperedlb/internal/exper"
	"temperedlb/internal/obs"
	"temperedlb/internal/workload"
)

// renderSweep runs a sweep at the given worker count and returns its
// rendered table.
func renderSweep(t *testing.T, workers int) string {
	t.Helper()
	base := core.EngineConfig{Config: core.Tempered()}
	base.Trials, base.Iterations = 2, 3
	configs := append(
		GossipSweepConfigs(base, []int{2, 4}, []int{2, 4}),
		RefinementSweepConfigs(base, []int{1, 2}, []int{1, 3})...)
	sw, err := runSweep("determinism", smallVB(33), configs, workers)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	sw.Render(&b)
	return b.String()
}

// TestSweepSerialVsParallelBitIdentical asserts the runner's core
// promise: fanning the sweep configurations across workers changes
// nothing about the output, byte for byte.
func TestSweepSerialVsParallelBitIdentical(t *testing.T) {
	serial := renderSweep(t, 1)
	for _, workers := range []int{2, 4, 0} {
		if got := renderSweep(t, workers); got != serial {
			t.Fatalf("workers=%d output differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
				workers, serial, got)
		}
	}
}

// TestComparisonSerialVsParallelBitIdentical runs the §V-D comparison
// (original vs relaxed criterion on the identical initial distribution)
// serially and with 4 workers, and requires byte-identical tables.
func TestComparisonSerialVsParallelBitIdentical(t *testing.T) {
	a, err := workload.Generate(smallVB(44))
	if err != nil {
		t.Fatal(err)
	}
	base := core.EngineConfig{Config: smallConfig()}
	serial, err := runComparisonOn(a, base, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runComparisonOn(a, base, 4)
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Fatalf("§V-D comparison differs between serial and 4 workers:\n--- serial ---\n%s--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
	if serial.Relaxed.InitialImbalance <= serial.Relaxed.Rows[len(serial.Relaxed.Rows)-1].Imbalance {
		t.Error("relaxed criterion failed to improve the imbalance")
	}
}

// TestParallelSweepWithObsIsRaceFree drives a parallel sweep with a
// shared tracer and shared metrics attached to every configuration.
// Under `go test -race` (make race / make check) this proves the obs
// path is safe to thread through concurrent engine runs.
func TestParallelSweepWithObsIsRaceFree(t *testing.T) {
	rec := obs.NewRecorder()
	m := obs.NewMetrics()
	base := core.EngineConfig{Config: core.Tempered()}
	base.Trials, base.Iterations = 1, 2
	configs := GossipSweepConfigs(base, []int{2, 3, 4}, []int{2, 3})
	a, err := workload.Generate(smallVB(55))
	if err != nil {
		t.Fatal(err)
	}
	tables, err := exper.MapErr(len(configs), 8, func(i int) (Table, error) {
		cfg := configs[i].Cfg
		cfg.Tracer = rec // shared: Recorder shards by rank and is Emit-safe
		tab, err := RunIterationTableOn(configs[i].Label, a, cfg)
		if err != nil {
			return Table{}, err
		}
		m.Counter("sweep_points_total").Inc()
		m.Counter("sweep_transfers_total").Add(int64(sumTransfers(tab)))
		m.Histogram("sweep_final_imbalance", []float64{1, 10, 100}).Observe(i, finalImbalance(tab))
		return tab, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("sweep_points_total").Value(); got != int64(len(configs)) {
		t.Fatalf("metrics counted %d points, want %d", got, len(configs))
	}
	// Every table emits LBBegin/LBEnd plus per-iteration begin/end pairs.
	wantEvents := len(configs) * (2 + 2*base.Iterations)
	if got := len(rec.Events()); got != wantEvents {
		t.Fatalf("recorder holds %d events, want %d", got, wantEvents)
	}
	for i, tab := range tables {
		if tab.Title != configs[i].Label {
			t.Fatalf("table %d out of order: %q", i, tab.Title)
		}
	}
}

func sumTransfers(t Table) int {
	n := 0
	for _, r := range t.Rows {
		n += r.Transfers
	}
	return n
}

func finalImbalance(t Table) float64 {
	if len(t.Rows) == 0 {
		return t.InitialImbalance
	}
	return t.Rows[len(t.Rows)-1].Imbalance
}

// TestSweepConfigNamedType pins the exported configuration type so the
// grid builders and RunSweep compose without anonymous structs.
func TestSweepConfigNamedType(t *testing.T) {
	grid := GossipSweepConfigs(core.EngineConfig{Config: core.Tempered()}, []int{2}, []int{3})
	var sc SweepConfig = grid[0]
	if sc.Label != "f=2 k=3" || sc.Cfg.Fanout != 2 || sc.Cfg.Rounds != 3 {
		t.Fatalf("unexpected SweepConfig %+v", sc)
	}
	if _, err := RunSweep("typed", smallVB(66), []SweepConfig{{Label: "pt", Cfg: core.EngineConfig{Config: smallConfig()}}}); err != nil {
		t.Fatal(err)
	}
	_ = fmt.Sprintf("%v", sc)
}
