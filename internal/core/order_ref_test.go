package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refOrderTasksInPlace is OrderTasksInPlace as it stood while the
// comparators ran under sort.Slice — the reference the slices.SortFunc
// versions must reproduce. The cutoff and marginal scans are shared with
// the live code on purpose: only the sorts changed.
func refOrderTasksInPlace(ts []Task, ave, selfLoad float64, ord Ordering) {
	descending := func(ts []Task) {
		sort.Slice(ts, func(i, j int) bool {
			if ts[i].Load != ts[j].Load {
				return ts[i].Load > ts[j].Load
			}
			return ts[i].ID < ts[j].ID
		})
	}
	split := func(ts []Task, pivot float64) {
		sort.Slice(ts, func(i, j int) bool {
			a, b := ts[i], ts[j]
			aLow, bLow := a.Load <= pivot, b.Load <= pivot
			switch {
			case aLow && !bLow:
				return true
			case !aLow && bLow:
				return false
			case aLow:
				if a.Load != b.Load {
					return a.Load > b.Load
				}
				return a.ID < b.ID
			default:
				if a.Load != b.Load {
					return a.Load < b.Load
				}
				return a.ID < b.ID
			}
		})
	}
	lex := selfLoad - ave
	switch ord {
	case OrderArbitrary:
		sort.Slice(ts, func(i, j int) bool { return ts[i].ID < ts[j].ID })
	case OrderLoadIntensive:
		descending(ts)
	case OrderFewestMigrations:
		if cut, ok := cutoffLoad(ts, lex); ok {
			split(ts, cut)
		} else {
			descending(ts)
		}
	case OrderLightest:
		sort.Slice(ts, func(i, j int) bool {
			if ts[i].Load != ts[j].Load {
				return ts[i].Load < ts[j].Load
			}
			return ts[i].ID < ts[j].ID
		})
		sum := 0.0
		for _, t := range ts {
			sum += t.Load
			if sum >= lex {
				split(ts, t.Load)
				return
			}
		}
	}
}

// TestOrderMatchesSortSliceReference: every comparator is a total order
// (ties on load fall to the unique task ID), so replacing sort.Slice by
// slices.SortFunc cannot change a permutation. 1000 seeded task sets per
// ordering, loads drawn from a handful of values so ties are the norm,
// handed over in shuffled order, with the average chosen to reach both
// the cutoff/marginal branch and its fallback.
func TestOrderMatchesSortSliceReference(t *testing.T) {
	for _, ord := range []Ordering{OrderArbitrary, OrderLoadIntensive, OrderFewestMigrations, OrderLightest} {
		rng := rand.New(rand.NewSource(int64(ord) + 41))
		for set := 0; set < 1000; set++ {
			n := 1 + rng.Intn(200)
			in := make([]Task, n)
			selfLoad := 0.0
			for i, id := range rng.Perm(n) {
				in[i] = Task{ID: TaskID(id), Load: float64(1+rng.Intn(6)) / 3}
				selfLoad += in[i].Load
			}
			// lex below, among, or above the task loads — and past the total.
			ave := selfLoad * []float64{0.999, 0.9, 0.5, 0, -0.5}[rng.Intn(5)]
			want := slices.Clone(in)
			refOrderTasksInPlace(want, ave, selfLoad, ord)
			if got := OrderTasks(in, ave, selfLoad, ord); !slices.Equal(got, want) {
				t.Fatalf("%v, set %d (n=%d, ave=%g, self=%g):\n got %v\nwant %v", ord, set, n, ave, selfLoad, got, want)
			}
		}
	}
}
