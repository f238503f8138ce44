package main

import (
	"bytes"
	"fmt"
	"math"
	"reflect"

	"temperedlb"
)

// check verifies the outputs of one op, outside its timed window. A
// failed check is a failed operation.
func (w *workloadDef) check(in *input, res *opResult, at attach) error {
	if w.Service {
		return w.checkService(in, res, at)
	}
	return w.checkBalancer(in, res, at)
}

func (w *workloadDef) checkBalancer(in *input, res *opResult, at attach) error {
	d := res.dist
	for r, pr := range res.perRank {
		if pr.FinalImbalance != d.FinalImbalance || len(pr.History) != len(d.History) {
			return fmt.Errorf("rank %d disagrees with rank 0 on the result", r)
		}
	}
	wantIters := w.Trials * w.Iters
	if at.warmup {
		wantIters = 1
	}
	if len(d.History) != wantIters {
		return fmt.Errorf("history has %d iterations, want %d", len(d.History), wantIters)
	}
	if !at.warmup && d.FinalImbalance > w.MaxFinalImb {
		return fmt.Errorf("final imbalance %.4f above the sanity ceiling %.4g (initial %.4f)",
			d.FinalImbalance, w.MaxFinalImb, d.InitialImbalance)
	}

	// Every created object lives on exactly one rank with its load
	// intact, and the imbalance recomputed from where the objects really
	// are equals the one the protocol reported.
	want := map[temperedlb.ObjectID]float64{}
	for _, objs := range res.created {
		for _, o := range objs {
			want[o.id] = o.state
		}
	}
	seen := 0
	maxLoad, total := 0.0, 0.0
	for r, objs := range res.placed { // in ascending id order, as LocalObjects listed them
		load := 0.0
		for _, o := range objs {
			l, ok := want[o.id]
			if !ok {
				return fmt.Errorf("object %v on rank %d was never created or lives on two ranks", o.id, r)
			}
			if l != o.state {
				return fmt.Errorf("object %v carries load %v, created with %v", o.id, o.state, l)
			}
			delete(want, o.id)
			seen++
			load += o.state
		}
		maxLoad = math.Max(maxLoad, load)
		total += load
	}
	if len(want) != 0 {
		return fmt.Errorf("%d objects lost (%d placed)", len(want), seen)
	}
	if total > 0 {
		placedImb := maxLoad/(total/float64(w.Ranks)) - 1
		if math.Abs(placedImb-d.FinalImbalance) > exactTol*math.Max(1, placedImb) {
			return fmt.Errorf("placement has imbalance %.12f, protocol reported %.12f", placedImb, d.FinalImbalance)
		}
	}

	if at.stream {
		if wantFrames := 1 + wantIters + 1; res.frames != wantFrames {
			return fmt.Errorf("stream carried %d frames, want %d", res.frames, wantFrames)
		}
	}
	if ref := in.ref; ref != nil && !at.warmup {
		if !reflect.DeepEqual(d.StripTiming(), ref.dist.StripTiming()) {
			return fmt.Errorf("result differs from the reference op on the same input:\n got %+v\nwant %+v",
				d.StripTiming(), ref.dist.StripTiming())
		}
		if res.migrations != ref.migrations {
			return fmt.Errorf("%d migrations, reference op made %d", res.migrations, ref.migrations)
		}
	}
	return nil
}

func (w *workloadDef) checkService(in *input, res *opResult, at attach) error {
	s := res.svc
	phases := w.phases(at)
	if s.Fires+s.Skips != phases || len(s.Rows) != phases {
		return fmt.Errorf("%d fires + %d skips over %d rows, want %d phases", s.Fires, s.Skips, len(s.Rows), phases)
	}
	// Every item the scenario introduced lives on exactly one rank.
	spec := in.svc.Scenario
	spec.Phases = phases
	sc, err := temperedlb.NewScenario(spec)
	if err != nil {
		return err
	}
	want := map[int]bool{}
	for r := 0; r < w.Ranks; r++ {
		for _, it := range sc.Arrivals(r) {
			if sc.Item(it).Start < phases {
				want[it] = true
			}
		}
	}
	for r, objs := range res.placed {
		for _, o := range objs {
			it := int(o.state)
			if !want[it] {
				return fmt.Errorf("item %d on rank %d was never introduced or lives on two ranks", it, r)
			}
			delete(want, it)
		}
	}
	if len(want) != 0 {
		return fmt.Errorf("%d items lost", len(want))
	}
	if ref := in.ref; ref != nil && !at.warmup {
		if !bytes.Equal(res.svcLog, ref.svcLog) {
			return fmt.Errorf("trigger log differs from the reference run on the same input")
		}
		if s.AssignFP != ref.svc.AssignFP {
			return fmt.Errorf("assignment fingerprint %013x, reference %013x", s.AssignFP, ref.svc.AssignFP)
		}
	}
	return nil
}

// serviceFinalImbalance is the mean post-LB imbalance over the phases on
// which the trigger fired.
func serviceFinalImbalance(s temperedlb.ServiceResult) float64 {
	sum, n := 0.0, 0
	for _, row := range s.Rows {
		if row.Fired {
			sum += row.FinalImb
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
