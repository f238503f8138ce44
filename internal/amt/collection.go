package amt

import (
	"fmt"

	"temperedlb/internal/core"
)

// CollectionID identifies a distributed collection; all ranks must use
// the same id for the same collection.
type CollectionID int32

// Collection is a distributed indexed array of migratable objects — the
// vt "collection" concept the paper's programming model is built
// around: EMPIRE's colors form a collection whose elements the load
// balancer migrates. Elements are addressed by dense index; the mapping
// from index to ObjectID is a pure function every rank computes without
// communication, and the location manager handles elements that have
// migrated away from their home.
type Collection struct {
	id   CollectionID
	size int
	n    int
}

// collection element ids live in a reserved ObjectID namespace so they
// can be computed independently on every rank without colliding with
// CreateObject's per-rank sequence numbers.
const collectionSeqBase = int64(1) << 38

func collectionSeq(id CollectionID, index int) int64 {
	return collectionSeqBase | int64(id)<<24 | int64(index)
}

// CreateCollection collectively creates a collection of size elements.
// Every rank must call it with the same id, size and factory; each rank
// instantiates the elements homed to it under the block mapping
// (element i lives on rank i·P/size initially). The factory builds
// element i's initial state. Collections must be created outside
// epochs, before any element messages are sent, and ids must not repeat.
func (rc *Context) CreateCollection(id CollectionID, size int, factory func(index int) any) *Collection {
	if size < 1 || size >= 1<<24 {
		panic(fmt.Sprintf("amt: CreateCollection size %d out of [1, 2^24)", size))
	}
	if id < 0 || int64(id) >= 1<<14 {
		panic(fmt.Sprintf("amt: CreateCollection id %d out of range", id))
	}
	c := &Collection{id: id, size: size, n: rc.n}
	for i := 0; i < size; i++ {
		if c.HomeRank(i) != rc.rank {
			continue
		}
		oid := c.Element(i)
		if _, dup := rc.objects[oid]; dup {
			panic(fmt.Sprintf("amt: collection %d recreated or id collision at element %d", id, i))
		}
		rc.addObject(oid, factory(i))
	}
	return c
}

// Size returns the number of elements.
func (c *Collection) Size() int { return c.size }

// HomeRank returns the element's initial (directory) rank under the
// block mapping.
func (c *Collection) HomeRank(index int) core.Rank {
	c.check(index)
	return core.Rank(index * c.n / c.size)
}

// Element returns the ObjectID of element index. The id is valid on
// every rank, wherever the element currently lives.
func (c *Collection) Element(index int) ObjectID {
	c.check(index)
	return MakeObjectID(c.HomeRank(index), collectionSeq(c.id, index))
}

// Index recovers the element index from a collection element's
// ObjectID, and whether the id belongs to this collection.
func (c *Collection) Index(id ObjectID) (int, bool) {
	seq := int64(id) & (1<<40 - 1)
	if seq&collectionSeqBase == 0 {
		return 0, false
	}
	if CollectionID(seq>>24&(1<<14-1)) != c.id {
		return 0, false
	}
	idx := int(seq & (1<<24 - 1))
	if idx >= c.size || c.Element(idx) != id {
		return 0, false
	}
	return idx, true
}

// Send delivers an object message to element index, wherever it lives.
func (c *Collection) Send(rc *Context, index int, h HandlerID, data any) {
	rc.SendObject(c.Element(index), h, data)
}

// LocalIndices returns the indices of the collection's elements
// currently hosted on this rank, in ascending order.
func (c *Collection) LocalIndices(rc *Context) []int {
	var out []int
	for _, id := range rc.LocalObjects() {
		if idx, ok := c.Index(id); ok {
			out = append(out, idx)
		}
	}
	sortInts(out)
	return out
}

// Broadcast runs the handler on every element of the collection. It is
// collective: each rank delivers locally to the elements it hosts, so
// the broadcast costs no messages; callers needing a happens-before
// boundary should wrap it (plus any resulting sends) in an Epoch.
func (c *Collection) Broadcast(rc *Context, h HandlerID, data any) {
	handler := rc.rt.objHandler(h)
	if handler == nil {
		panic(fmt.Sprintf("amt: Broadcast to unregistered object handler %d", h))
	}
	for _, idx := range c.LocalIndices(rc) {
		id := c.Element(idx)
		state := rc.objects[id]
		handler(rc, id, state, rc.rank, data)
	}
}

// Migrate moves element index to dest; the element must currently live
// on this rank.
func (c *Collection) Migrate(rc *Context, index int, dest core.Rank) {
	rc.Migrate(c.Element(index), dest)
}

func (c *Collection) check(index int) {
	if index < 0 || index >= c.size {
		panic(fmt.Sprintf("amt: collection index %d out of [0,%d)", index, c.size))
	}
}

// sortInts is a tiny insertion sort; local element lists are short.
func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
