package amt

import (
	"math"
	"testing"
)

// TestPhaseStatsLoadsLiveUntilNextPhaseBegin holds PhaseEnd's contract
// with the rank's one phase map: the Loads it returns are intact after
// PhaseEnd and through a barrier, and empty once the next PhaseBegin
// runs; a phase in the steady state allocates nothing; and
// the slow path — an object that worked and then migrated out, so the
// rank's id list no longer covers the map — still sums in ascending-id
// order, in a later phase on the reused map as well as in the first.
func TestPhaseStatsLoadsLiveUntilNextPhaseBegin(t *testing.T) {
	rt := New(2)
	rt.Run(func(rc *Context) {
		if rc.Rank() != 0 {
			rc.Barrier()
			rc.Epoch(func() {})
			rc.Epoch(func() {})
			return
		}
		var ids []ObjectID
		for i := 0; i < 12; i++ {
			ids = append(ids, rc.CreateObject(i))
		}
		load := func(phase, i int) float64 { return 1.0/3.0 + float64(i)/7.0 + float64(phase)/11.0 }
		work := func(phase int) {
			for i, id := range ids {
				if rc.HasObject(id) {
					rc.RecordWork(id, load(phase, i))
				}
			}
		}

		rc.PhaseBegin()
		work(0)
		first := rc.PhaseEnd()
		rc.Barrier()
		if len(first.Loads) != len(ids) || first.Loads[ids[3]] != load(0, 3) {
			t.Errorf("after PhaseEnd: %d loads, object 3 at %v; want %d, %v",
				len(first.Loads), first.Loads[ids[3]], len(ids), load(0, 3))
		}
		rc.PhaseBegin()
		if len(first.Loads) != 0 {
			t.Errorf("the previous phase's Loads hold %d entries after PhaseBegin, want 0", len(first.Loads))
		}
		rc.PhaseEnd()

		if a := testing.AllocsPerRun(20, func() {
			rc.PhaseBegin()
			work(1)
			rc.PhaseEnd()
		}); a != 0 {
			t.Errorf("a phase over %d objects allocates %.0f times, want 0", len(ids), a)
		}

		// Two more phases on the reused map, each with an object that
		// works and then migrates out; the first one's leaver is gone for
		// the second, which records one object fewer.
		for k, leaving := range []int{4, 9} {
			rc.PhaseBegin()
			work(k)
			rc.Epoch(func() { rc.Migrate(ids[leaving], 1) })
			st := rc.PhaseEnd()
			want := 0.0 // ids are created in ascending order
			for i, id := range ids {
				if _, ok := st.Loads[id]; ok {
					want += load(k, i)
				}
			}
			if math.Float64bits(st.Total) != math.Float64bits(want) || len(st.Loads) != len(ids)-k {
				t.Errorf("migrating phase %d: Total = %v over %d loads, want %v over %d", k, st.Total, len(st.Loads), want, len(ids)-k)
			}
		}
	})
}
