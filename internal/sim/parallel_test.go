package sim

import (
	"os"
	"path/filepath"
	"testing"

	"temperedlb/internal/core"
	"temperedlb/internal/empire"
)

// runCSV runs the standard configurations at the given worker count and
// returns the contents of every CSV file WriteSeriesCSV produces.
func runCSV(t *testing.T, workers int) map[string][]byte {
	t.Helper()
	cfg := empire.Small()
	cfg.Steps = 12
	tweak := func(c core.EngineConfig) core.EngineConfig {
		c.Trials, c.Iterations = 2, 3
		return c
	}
	trackers := StandardTrackers(tweak)
	e, err := NewExperiment(cfg, DefaultCostModel(), trackers)
	if err != nil {
		t.Fatal(err)
	}
	e.workers = workers
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteSeriesCSV(dir, trackers); err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, name := range []string{"fig4a.csv", "fig4b.csv", "fig4c.csv", "breakdown.csv"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 {
			t.Fatalf("%s is empty", name)
		}
		out[name] = b
	}
	return out
}

// TestCSVSerialVsParallelBitIdentical asserts that running the trackers
// serially and on 4 workers produces byte-for-byte identical CSV dumps:
// the per-step fan-out changes scheduling, never results.
func TestCSVSerialVsParallelBitIdentical(t *testing.T) {
	serial := runCSV(t, 1)
	parallel := runCSV(t, 4)
	for name, want := range serial {
		if got := parallel[name]; string(got) != string(want) {
			t.Errorf("%s differs between serial and 4 workers:\n--- serial ---\n%s--- parallel ---\n%s",
				name, want, got)
		}
	}
}
