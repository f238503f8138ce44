package core

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// RankLoad is one entry of the gossip payload: an underloaded rank and
// its load as known to the sender.
type RankLoad struct {
	Rank Rank
	Load float64
}

// LoadTable is the load map LOAD of one node's gossip stage: slot r holds
// the load rank r announced at Begin (Algorithm 1 line 8). Every gossip
// state of a node points at the same table — the engine owns one for all
// its ranks, the distributed balancer one per runtime — because that is
// the only value any copy of r's entry can carry within a stage: entries
// originate only at Begin, and the transfer stage keeps the loads it
// schedules in its own CMF. A merge therefore moves membership bits, not
// loads.
//
// Slots are read and written with atomic 64-bit operations: several local
// ranks may merge the same remote entry at once, and they all store the
// same value. Slots of ranks no state knows are stale and never read.
type LoadTable struct {
	slot []atomic.Uint64 // math.Float64bits of the load
}

// NewLoadTable returns a table over numRanks ranks.
func NewLoadTable(numRanks int) *LoadTable {
	return &LoadTable{slot: make([]atomic.Uint64, numRanks)}
}

func (t *LoadTable) store(r Rank, l float64) { t.slot[r].Store(math.Float64bits(l)) }

func (t *LoadTable) load(r Rank) float64 { return math.Float64frombits(t.slot[r].Load()) }

// Knowledge is a rank's accumulated partial view of the underloaded
// ranks in the system: the set S^p and load map LOAD^p of the paper's
// notation, kept consistent by construction (|S^p| ≡ |LOAD^p()|).
//
// S^p is a membership bitset of one bit per rank and a count; the loads
// live in the node's LoadTable. Every walk over S^p — the CMF build,
// payloads — is in rank order, so nothing the knowledge produces depends
// on the order in which messages arrived. Walks, snapshots and Reset
// cover only the span of words that can hold members, so a set of a few
// ranks costs a few words however large P is.
type Knowledge struct {
	member []uint64 // bit r set iff rank r is in S^p
	lo, hi int      // every word outside member[lo:hi] is zero
	n      int      // |S^p|
	table  *LoadTable
}

// NewKnowledge returns empty knowledge over numRanks ranks, on a private
// table.
func NewKnowledge(numRanks int) *Knowledge {
	return newKnowledgeOn(NewLoadTable(numRanks))
}

func newKnowledgeOn(t *LoadTable) *Knowledge {
	return &Knowledge{
		member: make([]uint64, (len(t.slot)+63)/64),
		table:  t,
	}
}

// Add inserts rank r with load l if not yet known and reports whether
// the entry was new. An existing entry is left untouched: the first load
// learned for a rank wins, matching set-union semantics of Algorithm 1
// lines 16–17. A new entry writes the table's slot r.
func (k *Knowledge) Add(r Rank, l float64) bool {
	w, bit := uint(r)>>6, uint64(1)<<(uint(r)&63)
	if k.member[w]&bit != 0 {
		return false
	}
	k.member[w] |= bit
	k.cover(int(w), int(w)+1)
	k.n++
	k.table.store(r, l)
	return true
}

// Contains reports whether rank r is in S^p.
func (k *Knowledge) Contains(r Rank) bool {
	return k.member[uint(r)>>6]&(1<<(uint(r)&63)) != 0
}

// Load returns the known load of rank r, its table slot; r must be known.
func (k *Knowledge) Load(r Rank) float64 {
	if !k.Contains(r) {
		panic("core: Knowledge.Load of unknown rank")
	}
	return k.table.load(r)
}

// Len returns |S^p|.
func (k *Knowledge) Len() int { return k.n }

// NumRanks returns the size of the rank space the knowledge covers.
func (k *Knowledge) NumRanks() int { return len(k.table.slot) }

// Merge adds all unknown entries of an explicit payload, writing their
// slots, and returns the number of new entries (Algorithm 1 lines 16–17).
func (k *Knowledge) Merge(entries []RankLoad) int {
	added := 0
	for _, e := range entries {
		if k.Add(e.Rank, e.Load) {
			added++
		}
	}
	return added
}

// cover widens the span of words that can hold members to include
// [lo, hi).
func (k *Knowledge) cover(lo, hi int) {
	if k.lo == k.hi {
		k.lo, k.hi = lo, hi
		return
	}
	k.lo, k.hi = min(k.lo, lo), max(k.hi, hi)
}

// merge adds the entries of m, whichever form it has. A snapshot is a
// union of bitsets: the new members are theirs &^ mine, and their loads
// are already in the shared table. A snapshot taken over another table
// names slots this knowledge cannot read, so it is refused.
func (k *Knowledge) merge(m *InformMsg) int {
	s := &m.known
	if s.table == nil {
		return k.Merge(m.Entries)
	}
	if s.table != k.table {
		panic("core: gossip snapshot from another load table")
	}
	base, added := int(s.base), 0
	mine := k.member[base : base+len(s.words)]
	for i, theirs := range s.words {
		fresh := theirs &^ mine[i]
		if fresh == 0 {
			continue
		}
		mine[i] |= fresh
		added += bits.OnesCount64(fresh)
	}
	k.cover(base, base+len(s.words))
	k.n += added
	return added
}

// appendMembers appends S^p to dst in rank order.
func (k *Knowledge) appendMembers(dst []Rank) []Rank {
	for i, word := range k.member[k.lo:k.hi] {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, Rank((k.lo+i)<<6|bits.TrailingZeros64(word)))
		}
	}
	return dst
}

// Canonicalize does nothing: every walk over the knowledge is in rank
// order already. It is kept only because the benchmark's probes
// (bench/probes.go), frozen with their recorded reference values, still
// call it; it goes when the benchmark is unfrozen (ROADMAP item 4).
func (k *Knowledge) Canonicalize() {}

// Reset empties the knowledge for reuse in a new iteration: the bitset
// is cleared. The table is left alone; the next Begin writes the slots
// the new stage will read.
// Snapshots taken before the reset become invalid: every caller must
// deliver (or drop) all in-flight messages of an iteration before
// resetting — the synchronous engine drains its queue to quiescence and
// the distributed balancer closes the iteration's epoch, so both satisfy
// this by construction.
func (k *Knowledge) Reset() {
	clear(k.member[k.lo:k.hi])
	k.lo, k.hi, k.n = 0, 0, 0
}
