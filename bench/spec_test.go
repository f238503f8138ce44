package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkSpec is the shape of BENCHMARK.json at the repository root.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specLayer    `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type specLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is the timed budget the pipeline gives one run: long enough
// for two paper-scale ops, and for medians over tens of ops elsewhere; as
// long as the pipeline's limit on all its runs together allows with four
// workloads (a measured run takes 30 s of wall).
const runSeconds = 26

func specFromTables() benchmarkSpec {
	spec := benchmarkSpec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, specWorkload{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, specMetric{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, specLayer(m))
	}
	return spec
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json equal to the tables
// the program reports from. BENCH_WRITE_SPEC=1 rewrites the file.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want, err := json.MarshalIndent(specFromTables(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	path := filepath.Join("..", "BENCHMARK.json")
	if os.Getenv("BENCH_WRITE_SPEC") != "" {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in metrics.go and workloads.go; regenerate it with BENCH_WRITE_SPEC=1 go test ./bench -run BenchmarkJSON")
	}
}

// TestSpecWithinPipelineLimits checks the limits the pipeline refuses a
// benchmark for before running it.
func TestSpecWithinPipelineLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not a valid metric or workload name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("%s: why is %d characters, want one line of at most 200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range endToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Errorf("no setup_s metric in seconds, lower is better")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range perLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d", runSeconds)
	}
}
