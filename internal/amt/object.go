package amt

import (
	"fmt"
	"slices"

	"temperedlb/internal/comm"
	"temperedlb/internal/comm/wire"
	"temperedlb/internal/core"
	"temperedlb/internal/obs"
)

// ObjectID identifies a migratable object. The home rank (its creator)
// is encoded in the high bits and acts as the object's location
// directory: other ranks fall back to asking the home when they have no
// fresher knowledge, and the home is notified whenever the object lands
// somewhere new.
type ObjectID int64

// MakeObjectID composes an id from a home rank and a per-rank sequence
// number; exposed for tests and tooling.
func MakeObjectID(home core.Rank, seq int64) ObjectID {
	return ObjectID(int64(home)<<40 | seq)
}

// Home returns the object's home (creating) rank.
func (id ObjectID) Home() core.Rank { return core.Rank(id >> 40) }

func (id ObjectID) seq() int64 { return int64(id) & (1<<40 - 1) }

// String renders the id as home.sequence.
func (id ObjectID) String() string {
	return fmt.Sprintf("obj(%d.%d)", id.Home(), id.seq())
}

// CreateObject registers a new migratable object on this rank and
// returns its id. The state is owned by the runtime from here on and is
// handed to object handlers on whichever rank currently hosts it.
func (rc *Context) CreateObject(state any) ObjectID {
	rc.objSeq++
	id := MakeObjectID(rc.rank, rc.objSeq)
	rc.addObject(id, state)
	return id
}

// addObject installs an object on this rank: its state, its directory
// entry, and its place in the ascending id list.
func (rc *Context) addObject(id ObjectID, state any) {
	rc.objects[id] = state
	rc.location[id] = rc.rank
	if n := len(rc.localIDs); n == 0 || rc.localIDs[n-1] < id {
		rc.localIDs = append(rc.localIDs, id)
	} else if i, found := slices.BinarySearch(rc.localIDs, id); !found {
		rc.localIDs = slices.Insert(rc.localIDs, i, id)
	}
}

// HasObject reports whether the object currently resides on this rank.
func (rc *Context) HasObject(id ObjectID) bool {
	_, ok := rc.objects[id]
	return ok
}

// ObjectState returns the local state of an object hosted here.
func (rc *Context) ObjectState(id ObjectID) (any, bool) {
	s, ok := rc.objects[id]
	return s, ok
}

// LocalObjects returns the ids of all objects currently hosted on this
// rank, in ascending order so callers iterate deterministically. The
// slice is the caller's own copy: it may create or migrate objects while
// ranging over it.
func (rc *Context) LocalObjects() []ObjectID {
	return append(make([]ObjectID, 0, len(rc.localIDs)), rc.localIDs...)
}

// bestKnown returns where this rank believes the object lives.
func (rc *Context) bestKnown(id ObjectID) core.Rank {
	if loc, ok := rc.location[id]; ok {
		return loc
	}
	return id.Home()
}

// SendObject delivers an active message to the object, wherever it
// currently lives. Messages race with migration: any rank that no
// longer (or does not yet) host the object forwards toward its best
// knowledge, and the home rank always converges on the true location,
// so delivery happens exactly once.
func (rc *Context) SendObject(id ObjectID, h HandlerID, data any) {
	if rc.rt.objHandler(h) == nil {
		panic(fmt.Sprintf("amt: SendObject to unregistered object handler %d", h))
	}
	rc.Stats[ObjectSent].Add(1)
	env := objEnvelope{Obj: id, Origin: rc.rank, Data: data}
	rc.routeObject(comm.Message{
		From: int(rc.rank), To: int(rc.bestKnown(id)), Kind: kindObject,
		Handler: int32(h), Data: env,
	})
}

// routeObject sends or, when the destination is this rank and the
// object is local, dispatches in place.
func (rc *Context) routeObject(m comm.Message) {
	if m.To == int(rc.rank) {
		env := m.Data.(objEnvelope)
		if state, ok := rc.objects[env.Obj]; ok {
			rc.runObjectHandler(HandlerID(m.Handler), env, state)
			return
		}
		// We believe it is here but it is not (already migrated away):
		// fall through to a real send toward fresher knowledge.
		m.To = int(rc.bestKnown(env.Obj))
		if m.To == int(rc.rank) {
			panic(fmt.Sprintf("amt: object %v lost: local directory points here but object absent", env.Obj))
		}
	}
	rc.send(m)
}

// dispatchObject handles an incoming object message: run the handler if
// the object is here, otherwise forward it toward the current best
// knowledge.
func (rc *Context) dispatchObject(m comm.Message) {
	env := m.Data.(objEnvelope)
	rc.countReceive(m)
	if state, ok := rc.objects[env.Obj]; ok {
		rc.runObjectHandler(HandlerID(m.Handler), env, state)
		return
	}
	next := rc.bestKnown(env.Obj)
	if next == rc.rank {
		// We are the home but have no fresher knowledge yet; the
		// migration notice must be in flight. Requeue to ourselves: the
		// epoch cannot terminate before the notice arrives, so this
		// retry converges.
		next = rc.rank
	}
	rc.Stats[Forwards].Add(1)
	// send re-stamps the epoch tag under our own detector.
	rc.send(comm.Message{
		From: int(rc.rank), To: int(next), Kind: kindObject,
		Handler: m.Handler, Data: env,
	})
}

// Migrate moves a local object to dest, carrying its state. The home
// rank is notified so the location directory converges. Migration of a
// non-local object panics: the caller must own what it moves.
func (rc *Context) Migrate(id ObjectID, dest core.Rank) {
	state, ok := rc.objects[id]
	if !ok {
		panic(fmt.Sprintf("amt: Migrate of non-local object %v", id))
	}
	if dest == rc.rank {
		return
	}
	delete(rc.objects, id)
	if i, found := slices.BinarySearch(rc.localIDs, id); found {
		rc.localIDs = slices.Delete(rc.localIDs, i, i+1)
	}
	rc.location[id] = dest
	bytes := wire.PayloadSize(state)
	rc.Stats[Migrations].Add(1)
	rc.Stats[MigrationBytes].Add(int64(bytes))
	rc.Emit(obs.Event{Type: obs.EvMigration, Peer: int(dest),
		Object: int64(id), Bytes: bytes})
	rc.send(comm.Message{
		From: int(rc.rank), To: int(dest), Kind: kindMigrate,
		Data: migrateEnvelope{Obj: id, State: state},
	})
}

// runObjectHandler invokes an object handler, under the clock when a
// tracer wants its duration.
func (rc *Context) runObjectHandler(h HandlerID, env objEnvelope, state any) {
	rc.Stats[HandlerCalls].Add(1)
	if rc.tr == nil {
		rc.rt.objHandler(h)(rc, env.Obj, state, env.Origin, env.Data)
		return
	}
	rc.timedHandler(h, int(env.Origin), env.Obj, func() {
		rc.rt.objHandler(h)(rc, env.Obj, state, env.Origin, env.Data)
	})
}

// installMigration receives a migrating object.
func (rc *Context) installMigration(m comm.Message) {
	env := m.Data.(migrateEnvelope)
	rc.countReceive(m)
	rc.addObject(env.Obj, env.State)
	if home := env.Obj.Home(); home != rc.rank {
		rc.send(comm.Message{
			From: int(rc.rank), To: int(home), Kind: kindLocUpdate,
			Data: locEnvelope{Obj: env.Obj, Loc: rc.rank},
		})
	}
}
