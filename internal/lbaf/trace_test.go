package lbaf

import (
	"bytes"
	"strings"
	"testing"

	"temperedlb/internal/core"
	"temperedlb/internal/workload"
)

func TestTraceRoundTrip(t *testing.T) {
	a, err := workload.Generate(smallVB(9))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveWorkload(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := LoadWorkload(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumRanks() != a.NumRanks() || b.NumTasks() != a.NumTasks() {
		t.Fatalf("dims differ: %d/%d vs %d/%d", b.NumRanks(), b.NumTasks(), a.NumRanks(), a.NumTasks())
	}
	for id := 0; id < a.NumTasks(); id++ {
		tid := core.TaskID(id)
		if a.Load(tid) != b.Load(tid) || a.Owner(tid) != b.Owner(tid) {
			t.Fatalf("task %d differs after round trip", id)
		}
	}
}

func TestTraceAnalysisMatchesDirect(t *testing.T) {
	a, _ := workload.Generate(smallVB(10))
	var buf bytes.Buffer
	if err := SaveWorkload(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := LoadWorkload(&buf)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := RunIterationTableOn("x", a, core.EngineConfig{Config: smallConfig()})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := RunIterationTableOn("x", b, core.EngineConfig{Config: smallConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if t1.String() != t2.String() {
		t.Error("analysis differs between original and round-tripped workload")
	}
}

func TestLoadWorkloadValidation(t *testing.T) {
	cases := []string{
		`{"num_ranks":0,"tasks":[]}`,
		`{"num_ranks":2,"tasks":[{"id":1,"load":1,"rank":0}]}`,
		`{"num_ranks":2,"tasks":[{"id":0,"load":1,"rank":5}]}`,
		`{"num_ranks":2,"tasks":[{"id":0,"load":-1,"rank":0}]}`,
		`not json`,
	}
	for i, c := range cases {
		if _, err := LoadWorkload(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: bad trace accepted", i)
		}
	}
}

func TestLoadWorkloadMinimal(t *testing.T) {
	a, err := LoadWorkload(strings.NewReader(`{"num_ranks":3,"tasks":[{"id":0,"load":2.5,"rank":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumRanks() != 3 || a.Load(0) != 2.5 || a.Owner(0) != 1 {
		t.Errorf("minimal trace decoded wrong")
	}
}

func FuzzLoadWorkload(f *testing.F) {
	f.Add([]byte(`{"num_ranks":3,"tasks":[{"id":0,"load":2.5,"rank":1}]}`))
	f.Add([]byte(`{"num_ranks":0}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := LoadWorkload(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever decodes must be a structurally valid assignment.
		if err := a.Validate(); err != nil {
			t.Fatalf("accepted trace produced invalid assignment: %v", err)
		}
	})
}
