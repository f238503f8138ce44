// Benchmark regression gate: `make bench-compare` (or BENCH_COMPARE=1
// go test -run TestBenchCompare) reruns the BENCH_lb.json suite through
// testing.Benchmark and fails if any row's B/op or allocs/op regressed
// more than the tolerance (default 20%, override with
// BENCH_TOLERANCE=0.30) against the committed file. Those two columns
// do not depend on the host; ns/op does — the file is recorded on
// whatever machine last regenerated it, and the gate went red at the
// parent commit on rows nobody had touched — so its delta is logged and
// never fails. Rows present in only one of the two sets are reported
// but do not fail the gate — adding a benchmark must not require
// regenerating the trajectory in the same commit.
package temperedlb_test

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"testing"
)

// TestBenchCompare diffs fresh measurements against BENCH_lb.json.
// Skipped unless BENCH_COMPARE is set: it reruns the full benchmark
// suite and must not slow down the tier-1 tests.
func TestBenchCompare(t *testing.T) {
	if os.Getenv("BENCH_COMPARE") == "" {
		t.Skip("set BENCH_COMPARE=1 (or run `make bench-compare`) to diff against BENCH_lb.json")
	}
	tolerance := 0.20
	if s := os.Getenv("BENCH_TOLERANCE"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v <= 0 {
			t.Fatalf("bad BENCH_TOLERANCE %q", s)
		}
		tolerance = v
	}

	raw, err := os.ReadFile("BENCH_lb.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed benchFile
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatal(err)
	}
	baseline := map[string]benchRecord{}
	for _, r := range committed.Benchmarks {
		baseline[r.Name] = r
	}

	check := func(name, unit string, got, want int64, gated bool) {
		limit := float64(want) * (1 + tolerance)
		delta := 100 * (float64(got)/float64(want) - 1)
		line := fmt.Sprintf("%-34s %-9s %12d committed %12d measured (%+.1f%%)",
			name, unit, want, got, delta)
		if gated && float64(got) > limit {
			t.Errorf("REGRESSION %s exceeds +%.0f%% tolerance", line, tolerance*100)
		} else {
			t.Log(line)
		}
	}

	seen := map[string]bool{}
	for _, bm := range benchJSONSuite() {
		want, ok := baseline[bm.name]
		if !ok {
			t.Logf("%-34s not in BENCH_lb.json; run `make bench-json` to record it", bm.name)
			continue
		}
		seen[bm.name] = true
		fn := bm.fn
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		check(bm.name, "ns/op", res.NsPerOp(), want.NsPerOp, false)
		check(bm.name, "B/op", res.AllocedBytesPerOp(), want.BytesPerOp, true)
		check(bm.name, "allocs/op", res.AllocsPerOp(), want.AllocsPerOp, true)
	}
	for name := range baseline {
		if !seen[name] {
			t.Logf("%-34s in BENCH_lb.json but not in the suite; stale row?", name)
		}
	}
}
