package core

import (
	"cmp"
	"slices"
)

// OrderTasks implements ORDERTASKS (§V-E): it returns the traversal order
// in which the transfer stage considers tasks for migration. The input
// slice is not modified; the result is always a permutation of it.
//
// selfLoad is the rank's current load l^p and ave the global average
// l_ave; they parameterize the FewestMigrations and Lightest orders via
// the excess load l_ex = l^p − l_ave.
//
// Ties are broken by ascending task ID so the order is deterministic.
func OrderTasks(tasks []Task, ave, selfLoad float64, ord Ordering) []Task {
	out := append([]Task(nil), tasks...)
	OrderTasksInPlace(out, ave, selfLoad, ord)
	return out
}

// OrderTasksInPlace is OrderTasks sorting the caller's slice directly,
// for callers that own a reusable buffer (the transfer scratch). Every
// ordering breaks ties by ascending task ID, so the result is the same
// deterministic permutation regardless of the input order.
func OrderTasksInPlace(tasks []Task, ave, selfLoad float64, ord Ordering) {
	switch ord {
	case OrderArbitrary:
		sortByID(tasks)
	case OrderLoadIntensive:
		sortDescending(tasks)
	case OrderFewestMigrations:
		orderFewestMigrations(tasks, ave, selfLoad)
	case OrderLightest:
		orderLightest(tasks, ave, selfLoad)
	}
}

// Every comparator below is a total order — ties on load fall through to
// the unique task ID — so the sorted permutation is unique and does not
// depend on the sorting algorithm or the input order.

func byID(a, b Task) int { return cmp.Compare(a.ID, b.ID) }

func byLoadAscending(a, b Task) int {
	switch {
	case a.Load < b.Load:
		return -1
	case a.Load > b.Load:
		return 1
	}
	return cmp.Compare(a.ID, b.ID)
}

func byLoadDescending(a, b Task) int {
	switch {
	case a.Load > b.Load:
		return -1
	case a.Load < b.Load:
		return 1
	}
	return cmp.Compare(a.ID, b.ID)
}

func sortByID(ts []Task) { slices.SortFunc(ts, byID) }

// sortDescending is Algorithm 4: most load-intensive tasks first.
func sortDescending(ts []Task) { slices.SortFunc(ts, byLoadDescending) }

func sortAscending(ts []Task) { slices.SortFunc(ts, byLoadAscending) }

// orderFewestMigrations is Algorithm 5. Any task with load above the
// excess l_ex can resolve the overload in a single migration; the
// lightest such task (the cutoff) goes first to minimize both the chance
// of rejection and the overload induced on the recipient. The rest
// follow as: tasks at or below the cutoff by descending load, then
// heavier tasks by ascending load.
func orderFewestMigrations(ts []Task, ave, selfLoad float64) {
	lex := selfLoad - ave
	cut, ok := cutoffLoad(ts, lex)
	if !ok {
		// No single task covers the excess (line 3): fall back to the
		// descending order of Algorithm 4.
		sortDescending(ts)
		return
	}
	splitSort(ts, cut)
}

// cutoffLoad returns the smallest task load strictly greater than lex
// (Algorithm 5 line 6) and whether one exists.
func cutoffLoad(ts []Task, lex float64) (float64, bool) {
	best, ok := 0.0, false
	for _, t := range ts {
		if t.Load > lex && (!ok || t.Load < best) {
			best, ok = t.Load, true
		}
	}
	return best, ok
}

// orderLightest is Algorithm 6. After sorting ascending, the marginal
// task is the one at which the ascending prefix sum first reaches the
// excess l_ex — the most load-intensive of the lightweight tasks that
// must all move for the rank to stop being overloaded. The final order
// is: tasks at or below the marginal load by descending load (so the
// marginal task is first), then heavier tasks by ascending load.
func orderLightest(ts []Task, ave, selfLoad float64) {
	lex := selfLoad - ave
	sortAscending(ts)
	sum, marg, found := 0.0, 0.0, false
	for _, t := range ts {
		sum += t.Load
		if sum >= lex {
			marg, found = t.Load, true
			break
		}
	}
	if !found {
		// The whole rank's load does not reach the excess (only possible
		// when lex exceeds the total, i.e. the rank is not actually
		// overloaded); keep the ascending order.
		return
	}
	splitSort(ts, marg)
}

// splitSort orders tasks with load <= pivot by descending load followed
// by tasks with load > pivot by ascending load — the comparator shared
// by Algorithms 5 and 6 (lines 7–11).
func splitSort(ts []Task, pivot float64) {
	slices.SortFunc(ts, func(a, b Task) int {
		aLow, bLow := a.Load <= pivot, b.Load <= pivot
		switch {
		case aLow && !bLow:
			return -1
		case !aLow && bLow:
			return 1
		case aLow: // both low: descending
			return byLoadDescending(a, b)
		default: // both high: ascending
			return byLoadAscending(a, b)
		}
	})
}
