package amt

import (
	"sync"
	"sync/atomic"
	"testing"

	"temperedlb/internal/comm/wire"
	"temperedlb/internal/core"
)

type counterState struct {
	Value int
	Tag   string
}

func TestObjectCreateAndLocalState(t *testing.T) {
	rt := New(2)
	rt.Run(func(rc *Context) {
		if rc.Rank() != 0 {
			return
		}
		id := rc.CreateObject(&counterState{Value: 7})
		if id.Home() != 0 {
			t.Errorf("home = %d", id.Home())
		}
		if !rc.HasObject(id) {
			t.Error("object not local after create")
		}
		s, ok := rc.ObjectState(id)
		if !ok || s.(*counterState).Value != 7 {
			t.Error("state lost")
		}
		if got := len(rc.LocalObjects()); got != 1 {
			t.Errorf("LocalObjects = %d", got)
		}
	})
}

func TestObjectIDComposition(t *testing.T) {
	id := MakeObjectID(5, 1234)
	if id.Home() != 5 || id.seq() != 1234 {
		t.Errorf("id decomposition: home=%d seq=%d", id.Home(), id.seq())
	}
	if id.String() == "" {
		t.Error("empty String")
	}
}

func TestSendObjectLocalDelivery(t *testing.T) {
	rt := New(2)
	var hit atomic.Int32
	rt.RegisterObject(hObjPoke, func(rc *Context, obj ObjectID, state any, from core.Rank, data any) {
		hit.Add(1)
		if state.(*counterState).Value != 3 {
			t.Error("wrong state delivered")
		}
	})
	rt.Run(func(rc *Context) {
		if rc.Rank() == 0 {
			id := rc.CreateObject(&counterState{Value: 3})
			rc.Epoch(func() {
				rc.SendObject(id, hObjPoke, nil)
			})
		} else {
			rc.Epoch(func() {})
		}
	})
	if hit.Load() != 1 {
		t.Errorf("handler ran %d times", hit.Load())
	}
}

func TestSendObjectRemoteDelivery(t *testing.T) {
	rt := New(3)
	var deliveredOn atomic.Int32
	deliveredOn.Store(-1)
	rt.RegisterObject(hObjPoke, func(rc *Context, obj ObjectID, state any, from core.Rank, data any) {
		deliveredOn.Store(int32(rc.Rank()))
		if from != 2 {
			t.Errorf("origin = %d, want 2", from)
		}
	})
	var id ObjectID
	var idReady sync.WaitGroup
	idReady.Add(1)
	rt.Run(func(rc *Context) {
		if rc.Rank() == 0 {
			id = rc.CreateObject(&counterState{})
			idReady.Done()
		}
		rc.Barrier()
		rc.Epoch(func() {
			if rc.Rank() == 2 {
				idReady.Wait()
				rc.SendObject(id, hObjPoke, "hello")
			}
		})
	})
	if deliveredOn.Load() != 0 {
		t.Errorf("delivered on rank %d, want 0", deliveredOn.Load())
	}
}

func TestMigratePreservesState(t *testing.T) {
	rt := New(2)
	rt.Run(func(rc *Context) {
		var id ObjectID
		if rc.Rank() == 0 {
			id = rc.CreateObject(&counterState{Value: 42, Tag: "keep"})
		}
		rc.Epoch(func() {
			if rc.Rank() == 0 {
				rc.Migrate(id, 1)
			}
		})
		rc.Barrier()
		if rc.Rank() == 1 {
			objs := rc.LocalObjects()
			if len(objs) != 1 {
				t.Fatalf("rank 1 has %d objects", len(objs))
			}
			s, _ := rc.ObjectState(objs[0])
			cs := s.(*counterState)
			if cs.Value != 42 || cs.Tag != "keep" {
				t.Errorf("state corrupted: %+v", cs)
			}
		}
		if rc.Rank() == 0 && len(rc.LocalObjects()) != 0 {
			t.Error("object still on rank 0 after migration")
		}
	})
}

func TestMigrateToSelfIsNoop(t *testing.T) {
	rt := New(2)
	rt.Run(func(rc *Context) {
		if rc.Rank() != 0 {
			return
		}
		id := rc.CreateObject(&counterState{Value: 1})
		rc.Migrate(id, 0)
		if !rc.HasObject(id) {
			t.Error("self-migration lost the object")
		}
		if rc.Stats[Migrations].Load() != 0 {
			t.Error("self-migration counted")
		}
	})
}

func TestMigrateNonLocalPanics(t *testing.T) {
	rt := New(2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	rt.Run(func(rc *Context) {
		if rc.Rank() == 1 {
			rc.Migrate(MakeObjectID(0, 1), 0)
		}
	})
}

// TestMessagesToMigratedObjectForwarded is the location-manager core
// test: messages sent using stale knowledge must be forwarded and
// handled exactly once on the object's actual location.
func TestMessagesToMigratedObjectForwarded(t *testing.T) {
	rt := New(4)
	var mu sync.Mutex
	handledOn := map[core.Rank]int{}
	rt.RegisterObject(hObjAdd, func(rc *Context, obj ObjectID, state any, from core.Rank, data any) {
		state.(*counterState).Value += data.(int)
		mu.Lock()
		handledOn[rc.Rank()]++
		mu.Unlock()
	})
	var id ObjectID
	rt.Run(func(rc *Context) {
		if rc.Rank() == 0 {
			id = rc.CreateObject(&counterState{})
		}
		rc.Barrier()
		// Move 0 -> 3 while other ranks address it via its home.
		rc.Epoch(func() {
			if rc.Rank() == 0 {
				rc.Migrate(id, 3)
			}
		})
		rc.Epoch(func() {
			if rc.Rank() == 1 || rc.Rank() == 2 {
				for i := 0; i < 10; i++ {
					rc.SendObject(id, hObjAdd, 1)
				}
			}
		})
		rc.Barrier()
		if rc.Rank() == 3 {
			s, ok := rc.ObjectState(id)
			if !ok {
				t.Error("object missing on rank 3")
			} else if got := s.(*counterState).Value; got != 20 {
				t.Errorf("object saw %d adds, want 20", got)
			}
		}
	})
	if handledOn[3] != 20 {
		t.Errorf("handled on rank 3: %d, want 20", handledOn[3])
	}
	for r, c := range handledOn {
		if r != 3 && c != 0 {
			t.Errorf("handled %d messages on wrong rank %d", c, r)
		}
	}
}

func TestMigrationChainForwarding(t *testing.T) {
	// Object hops 0 -> 1 -> 2 -> 3; a message from rank 0 sent with
	// original knowledge must chase it down the chain within the epoch.
	rt := New(4)
	var finalVal atomic.Int32
	rt.RegisterObject(hObjAdd, func(rc *Context, obj ObjectID, state any, from core.Rank, data any) {
		state.(*counterState).Value += data.(int)
		finalVal.Store(int32(state.(*counterState).Value))
	})
	var id ObjectID
	rt.Run(func(rc *Context) {
		if rc.Rank() == 0 {
			id = rc.CreateObject(&counterState{})
		}
		rc.Barrier()
		for hop := 0; hop < 3; hop++ {
			rc.Epoch(func() {
				if rc.HasObject(id) && rc.Rank() == core.Rank(hop) {
					rc.Migrate(id, core.Rank(hop+1))
				}
			})
		}
		rc.Epoch(func() {
			if rc.Rank() == 0 {
				rc.SendObject(id, hObjAdd, 5)
			}
		})
	})
	if finalVal.Load() != 5 {
		t.Errorf("message lost in chain: value %d", finalVal.Load())
	}
}

// TestMigrationStatsAccounted pins the migration volume to the wire
// codec: Stats.MigrationBytes and amt_migration_bytes_total are the sum
// of wire.PayloadSize over the states actually migrated. A state with no
// registered codec — it can only exist on the memory transport — counts
// zero and does not panic, with byte accounting sizing its envelope too.
func TestMigrationStatsAccounted(t *testing.T) {
	moved := []any{2.5, 7, &collMsg{Seq: 1, Values: make([]float64, 5)}, &counterState{Value: 9}}
	const want = 10 + 10 + (2 + 8 + 4 + 5*8) + 0
	sized := 0
	for _, s := range moved {
		sized += wire.PayloadSize(s)
	}
	if sized != want {
		t.Fatalf("PayloadSize over the migrated states = %d, want %d", sized, want)
	}
	rt := New(2, WithMetrics())
	rt.Run(func(rc *Context) {
		var ids []ObjectID
		if rc.Rank() == 0 {
			for _, s := range moved {
				ids = append(ids, rc.CreateObject(s))
			}
			rc.CreateObject(1.5) // stays: not part of the volume
		}
		rc.Epoch(func() {
			for _, id := range ids {
				rc.Migrate(id, 1)
			}
		})
		migs, bytes := rc.Stats[Migrations].Load(), rc.Stats[MigrationBytes].Load()
		if rc.Rank() == 0 && (migs != int64(len(moved)) || bytes != want) {
			t.Errorf("stats: %d migrations of %d bytes, want %d of %d", migs, bytes, len(moved), want)
		}
		if rc.Rank() == 1 && len(rc.LocalObjects()) != len(moved) {
			t.Errorf("rank 1 holds %d objects, want %d", len(rc.LocalObjects()), len(moved))
		}
	})
	if got := rt.Metrics().Counter("amt_migration_bytes_total").Value(); got != want {
		t.Errorf("amt_migration_bytes_total = %d, want %d", got, want)
	}
}

func TestManyObjectsManyMigrations(t *testing.T) {
	// Shuffle 40 objects around 5 ranks over several epochs, then verify
	// nothing was lost or duplicated and all state survived.
	const nRanks, nObjs = 5, 40
	rt := New(nRanks)
	var mu sync.Mutex
	seen := map[int]int{}
	rt.Run(func(rc *Context) {
		var created []ObjectID
		if rc.Rank() == 0 {
			for i := 0; i < nObjs; i++ {
				created = append(created, rc.CreateObject(&counterState{Value: 1000 + i}))
			}
		}
		rc.Barrier()
		for round := 0; round < 4; round++ {
			rc.Epoch(func() {
				for _, id := range rc.LocalObjects() {
					dest := core.Rank((int(id) + round) % nRanks)
					rc.Migrate(id, dest)
				}
			})
		}
		rc.Barrier()
		mu.Lock()
		for _, id := range rc.LocalObjects() {
			s, _ := rc.ObjectState(id)
			seen[s.(*counterState).Value]++
		}
		mu.Unlock()
	})
	if len(seen) != nObjs {
		t.Fatalf("saw %d distinct objects, want %d", len(seen), nObjs)
	}
	for v, c := range seen {
		if c != 1 {
			t.Errorf("object value %d seen %d times", v, c)
		}
	}
}

func TestPhaseInstrumentation(t *testing.T) {
	rt := New(1)
	rt.Run(func(rc *Context) {
		a := rc.CreateObject(&counterState{})
		b := rc.CreateObject(&counterState{})
		rc.PhaseBegin()
		rc.RecordWork(a, 1.5)
		rc.RecordWork(b, 2.0)
		rc.RecordWork(a, 0.5)
		st := rc.PhaseEnd()
		if st.Total != 4.0 {
			t.Errorf("Total = %g", st.Total)
		}
		if st.Loads[a] != 2.0 || st.Loads[b] != 2.0 {
			t.Errorf("Loads = %v", st.Loads)
		}
		if st.MaxTaskLoad() != 2.0 {
			t.Errorf("MaxTaskLoad = %g", st.MaxTaskLoad())
		}
	})
}

func TestPhaseMisusePanics(t *testing.T) {
	rt := New(1)
	rt.Run(func(rc *Context) {
		id := rc.CreateObject(&counterState{})
		mustPanicAMT(t, "RecordWork outside phase", func() { rc.RecordWork(id, 1) })
		mustPanicAMT(t, "PhaseEnd outside phase", func() { rc.PhaseEnd() })
		rc.PhaseBegin()
		mustPanicAMT(t, "nested PhaseBegin", func() { rc.PhaseBegin() })
		mustPanicAMT(t, "negative load", func() { rc.RecordWork(id, -1) })
		mustPanicAMT(t, "non-local object", func() { rc.RecordWork(MakeObjectID(0, 999), 1) })
		rc.PhaseEnd()
	})
}

func mustPanicAMT(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestContextStatsCounts(t *testing.T) {
	rt := New(2)
	rt.Register(hCollect, func(rc *Context, from core.Rank, data any) {})
	rt.RegisterObject(hObjPoke, func(rc *Context, obj ObjectID, state any, from core.Rank, data any) {})
	rt.Run(func(rc *Context) {
		var id ObjectID
		if rc.Rank() == 0 {
			id = rc.CreateObject(&counterState{})
		}
		rc.Epoch(func() {
			if rc.Rank() == 0 {
				rc.Send(1, hCollect, nil)
				rc.SendObject(id, hObjPoke, nil)
				rc.Migrate(id, 1)
			}
		})
		if rc.Rank() == 0 {
			st := &rc.Stats
			if st[UserSent].Load() != 1 || st[ObjectSent].Load() != 1 || st[Migrations].Load() != 1 {
				t.Errorf("stats: %d user sends, %d object sends, %d migrations, want 1 each",
					st[UserSent].Load(), st[ObjectSent].Load(), st[Migrations].Load())
			}
			if got := st[EpochsRun].Load(); got != 1 {
				t.Errorf("epochs: %d", got)
			}
		}
	})
}
