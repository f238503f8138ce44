package amt

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"temperedlb/internal/core"
)

// sortedKeys is the map-and-sort model LocalObjects and IDs used to be.
func sortedKeys[V any](m map[ObjectID]V) []ObjectID {
	out := make([]ObjectID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// TestLocalObjectsTracksObjectMap: the ordered id list kept beside the
// object map must equal the map's sorted keys after every kind of
// change — plain creates (appends), collection elements (higher
// sequence band), installs of lower- and higher-homed objects (inserts
// anywhere) and migrate-outs (deletes) — and the slice handed out must
// be the caller's: migrating while ranging over it is allowed.
func TestLocalObjectsTracksObjectMap(t *testing.T) {
	const nRanks = 4
	rt := New(nRanks)
	rt.Run(func(rc *Context) {
		check := func(when string) {
			t.Helper()
			if got, want := rc.LocalObjects(), sortedKeys(rc.objects); !slices.Equal(got, want) {
				t.Errorf("rank %d %s: LocalObjects %v, object map keys %v", rc.Rank(), when, got, want)
			}
		}
		rng := rand.New(rand.NewSource(int64(rc.Rank()) + 5))
		check("empty")
		rc.CreateCollection(1, 16, func(i int) any { return i })
		for i := 0; i < 10; i++ {
			rc.CreateObject(i)
		}
		check("after creates")
		for round := 0; round < 6; round++ {
			rc.Epoch(func() {
				for _, id := range rc.LocalObjects() {
					if rng.Intn(2) == 0 {
						rc.Migrate(id, core.Rank(rng.Intn(nRanks)))
					}
				}
			})
			rc.CreateObject(round)
			check("after a migration round")
		}
	})
}

// TestPhaseEndTotalAfterMidPhaseMigration: PhaseEnd totals over the
// rank's ordered id list, which no longer holds an object that recorded
// work and then left before the phase closed; the total must still be
// the ascending-id sum over everything recorded.
func TestPhaseEndTotalAfterMidPhaseMigration(t *testing.T) {
	rt := New(2)
	rt.Run(func(rc *Context) {
		if rc.Rank() != 0 {
			rc.Epoch(func() {})
			return
		}
		var ids []ObjectID
		for i := 0; i < 9; i++ {
			ids = append(ids, rc.CreateObject(i))
		}
		rc.PhaseBegin()
		want := 0.0
		for i, id := range ids {
			l := 1.0/3.0 + float64(i)/7.0
			rc.RecordWork(id, l)
			want += l
		}
		rc.Epoch(func() { rc.Migrate(ids[4], 1) })
		st := rc.PhaseEnd()
		if len(st.Loads) != len(ids) || math.Float64bits(st.Total) != math.Float64bits(want) {
			t.Errorf("Total = %v over %d loads, want %v over %d", st.Total, len(st.Loads), want, len(ids))
		}
	})
}

// TestLoadModelIDsFollowMembership: the cached id list must be rebuilt
// after each way membership changes — a new id, Forget, an age-out —
// and left alone by a caller reordering what IDs returned.
func TestLoadModelIDsFollowMembership(t *testing.T) {
	m := NewLoadModel(0.5)
	m.SetMaxAge(2)
	check := func(when string) {
		t.Helper()
		if got, want := m.IDs(), sortedKeys(m.pred); !slices.Equal(got, want) {
			t.Fatalf("%s: IDs %v, tracked %v", when, got, want)
		}
	}
	phase := func(seqs ...int64) {
		loads := make(map[ObjectID]float64)
		for _, s := range seqs {
			loads[MakeObjectID(0, s)] = float64(s)
		}
		m.Observe(PhaseStats{Loads: loads})
	}
	check("empty")
	phase(5, 1, 3)
	check("first phase")
	slices.Reverse(m.IDs())
	check("caller reordered its copy")
	phase(5, 1, 3, 2)
	check("new id")
	m.Forget(MakeObjectID(0, 3))
	m.Forget(MakeObjectID(0, 99)) // never tracked
	check("forget")
	phase(5, 2)
	check("one absent phase")
	phase(5, 2)
	check("aged out")
	if m.Len() != 2 {
		t.Fatalf("tracked %d objects after age-out, want 2", m.Len())
	}
}
