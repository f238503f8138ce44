package amt

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"temperedlb/internal/obs"
)

// TestWatchedMemory: on the in-memory transport the runtime's own stream
// is the whole job's, so Watched costs no collective, and only rank 0 —
// the lowest rank the single node hosts — is handed the stream.
func TestWatchedMemory(t *testing.T) {
	for _, stream := range []*obs.Stream{nil, obs.NewStream(4)} {
		rt := New(5, WithStream(stream))
		rt.Run(func(rc *Context) {
			if got := rc.Watched(); got != (stream != nil) {
				t.Errorf("rank %d: Watched = %v with stream %p", rc.Rank(), got, stream)
			}
			if got := rc.Stats[Collectives].Load(); got != 0 {
				t.Errorf("rank %d: Watched took %d collectives on the memory transport", rc.Rank(), got)
			}
			want := stream
			if rc.Rank() != 0 {
				want = nil
			}
			if rc.Stream() != want {
				t.Errorf("rank %d: Stream = %p, want %p", rc.Rank(), rc.Stream(), want)
			}
		})
	}
}

// TestWatchedAgreesAcrossNodes: on a socket transport a stream attached
// to any one node makes the whole job watched, the agreement is one
// collective however often Watched is asked, and the stream is handed to
// the lowest rank of the node that has it and to no other rank.
func TestWatchedAgreesAcrossNodes(t *testing.T) {
	const nRanks, nodes = 6, 2
	for _, watching := range []int{-1, 0, 1} {
		job, err := Launch("unix", nRanks, nodes, 0xA11)
		if err != nil {
			t.Fatal(err)
		}
		stream := obs.NewStream(4)
		if watching >= 0 {
			job.Runtimes[watching].SetStream(stream)
		}
		err = job.Run(func(rt *Runtime) func(*Context) error {
			node := slices.Index(job.Runtimes, rt)
			lo := rt.lo
			return func(rc *Context) error {
				first, second := rc.Watched(), rc.Watched()
				if first != (watching >= 0) || second != first {
					t.Errorf("watching node %d, rank %d: Watched = %v then %v", watching, rc.Rank(), first, second)
				}
				if got := rc.Stats[Collectives].Load(); got != 1 {
					t.Errorf("watching node %d, rank %d: two Watched calls took %d collectives, want 1",
						watching, rc.Rank(), got)
				}
				publishes := node == watching && int(rc.Rank()) == lo
				if (rc.Stream() != nil) != publishes {
					t.Errorf("watching node %d, rank %d on node %d: Stream = %p", watching, rc.Rank(), node, rc.Stream())
				}
				return nil
			}
		})
		if err != nil {
			t.Error(err)
		}
		job.Close()
	}
}

// TestLoadSummaryRidesReduce reduces an obs.LoadSummary beside a max and
// a sum on a real runtime, as the balancer does, and holds the frame it
// fills to the true load vector: the cells are the positional maxima bit
// for bit (the exact vector up to obs.LoadCells ranks), max and min are
// exact, and mean and deviation agree with FillLoadStats of the vector.
// The loads are non-dyadic, so any fold-order dependence would show.
func TestLoadSummaryRidesReduce(t *testing.T) {
	for _, n := range []int{1, 7, 64, 65, 1000, 4096} {
		rng := rand.New(rand.NewSource(int64(n)))
		loads := make([]float64, n)
		for r := range loads {
			loads[r] = 1.0/3 + float64(rng.Intn(50))/7*rng.Float64()
		}
		var truth obs.Snapshot
		truth.Loads = loads
		truth.FillLoadStats()

		summary := obs.NewLoadSummary(n)
		ops := obs.WithSummaryOps([]ReduceOp{ReduceSum}, summary, ReduceSum, ReduceMax)
		frames := make([]obs.Snapshot, n)
		rt := New(n)
		rt.Run(func(rc *Context) {
			r := int(rc.Rank())
			out := rc.AllReduceMixed(summary.Append([]float64{loads[r]}, r, loads[r]), ops)
			summary.Fill(&frames[r], out[1:], out[0])
		})

		cells := min(n, obs.LoadCells)
		for _, r := range []int{0, n - 1} {
			f := frames[r]
			if f.Ranks != n || len(f.Loads) != cells {
				t.Fatalf("P=%d rank %d: frame covers %d ranks in %d cells, want %d in %d", n, r, f.Ranks, len(f.Loads), n, cells)
			}
			for i, got := range f.Loads {
				want := math.Inf(-1)
				for _, l := range loads[i*n/cells : (i+1)*n/cells] {
					want = math.Max(want, l)
				}
				if got != want {
					t.Errorf("P=%d rank %d: cell %d = %v, positional max %v", n, r, i, got, want)
				}
			}
			if f.MaxLoad != truth.MaxLoad || f.MinLoad != truth.MinLoad {
				t.Errorf("P=%d rank %d: max/min %v/%v, want %v/%v", n, r, f.MaxLoad, f.MinLoad, truth.MaxLoad, truth.MinLoad)
			}
			for _, c := range []struct {
				name      string
				got, want float64
			}{
				{"avg", f.AvgLoad, truth.AvgLoad},
				{"stddev", f.StdDev, truth.StdDev},
				{"imbalance", f.Imbalance, truth.Imbalance},
			} {
				if math.Abs(c.got-c.want) > 1e-9*math.Abs(c.want) {
					t.Errorf("P=%d rank %d: %s = %v, FillLoadStats of the vector gives %v", n, r, c.name, c.got, c.want)
				}
			}
		}
	}

	// Equal loads: the moments cancel to rounding error, which the clamp
	// keeps from turning into the square root of a negative number.
	summary := obs.NewLoadSummary(7)
	var reduced []float64
	for r := 0; r < 7; r++ {
		in := summary.Append(nil, r, 1.0/3)
		if reduced == nil {
			reduced = in
			continue
		}
		reduced[0] += in[0]
		for i := 1; i < len(in); i++ {
			reduced[i] = math.Max(reduced[i], in[i])
		}
	}
	var f obs.Snapshot
	summary.Fill(&f, reduced, 7*(1.0/3))
	if math.IsNaN(f.StdDev) || f.StdDev > 1e-7 || f.MinLoad != 1.0/3 || f.MaxLoad != 1.0/3 {
		t.Errorf("equal loads: stddev %v min %v max %v", f.StdDev, f.MinLoad, f.MaxLoad)
	}
}
