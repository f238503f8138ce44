package cli

import (
	"flag"
	"fmt"

	"temperedlb/internal/core"
	"temperedlb/internal/workload"
)

// Workload is the synthetic-workload flag group. Every node of a
// multi-process job must be given the same values: each derives the same
// deterministic assignment and instantiates only its local ranks.
type Workload struct {
	Ranks, Tasks, Loaded int
	Placement, Loads     string
	Seed                 int64
}

// Register declares -ranks -tasks -loaded -placement -loads -seed on fs
// and returns the names it declared.
func (w *Workload) Register(fs *flag.FlagSet, only ...string) []string {
	return register(fs, only, func(g *flag.FlagSet) {
		g.IntVar(&w.Ranks, "ranks", w.Ranks, "total ranks of the job")
		g.IntVar(&w.Tasks, "tasks", w.Tasks, "number of tasks")
		g.IntVar(&w.Loaded, "loaded", w.Loaded, "initially loaded ranks (clustered placement)")
		g.StringVar(&w.Placement, "placement", w.Placement, "initial task placement: clustered | uniform | skewed")
		g.StringVar(&w.Loads, "loads", w.Loads, "task load model: unit | uniform | exp | mixture")
		g.Int64Var(&w.Seed, "seed", w.Seed, "seed of the workload and of every randomized decision of the run")
	})
}

// Spec resolves the flags into a workload specification.
func (w *Workload) Spec() (workload.Spec, error) {
	spec := workload.Spec{
		NumRanks:      w.Ranks,
		NumTasks:      w.Tasks,
		LoadedRanks:   w.Loaded,
		Seed:          w.Seed,
		HeavyFraction: 0.2,
	}
	switch w.Placement {
	case "clustered":
		spec.Placement = workload.PlaceClustered
	case "uniform":
		spec.Placement = workload.PlaceUniform
	case "skewed":
		spec.Placement = workload.PlaceSkewed
	default:
		return spec, fmt.Errorf("-placement %q: want clustered, uniform or skewed", w.Placement)
	}
	switch w.Loads {
	case "unit":
		spec.Loads = workload.LoadUnit
	case "uniform":
		spec.Loads = workload.LoadUniform
	case "exp":
		spec.Loads = workload.LoadExponential
	case "mixture":
		spec.Loads = workload.LoadMixture
	default:
		return spec, fmt.Errorf("-loads %q: want unit, uniform, exp or mixture", w.Loads)
	}
	return spec, nil
}

// Generate builds the assignment the flags describe.
func (w *Workload) Generate() (*core.Assignment, error) {
	spec, err := w.Spec()
	if err != nil {
		return nil, err
	}
	return workload.Generate(spec)
}
