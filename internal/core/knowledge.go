package core

import "math/bits"

// RankLoad is one entry of the gossip payload: an underloaded rank and
// its load as known to the sender.
type RankLoad struct {
	Rank Rank
	Load float64
}

// Knowledge is a rank's accumulated partial view of the underloaded
// ranks in the system: the set S^p and load map LOAD^p of the paper's
// notation, kept consistent by construction (|S^p| ≡ |LOAD^p()|).
//
// Two parts are eager, written by every Add: the entry log, append-only
// between resets and in insertion order (so payloads and the CMF built
// over them are deterministic for a deterministic message order, and
// Entries is a zero-copy snapshot — footnote 2 of the paper is about
// exactly this O(P) list), and a membership bitset of one bit per rank.
// The third is on demand: the rank-indexed load table is allocated, and
// caught up from the log, only when Load, Update, MaxLoad or
// Canonicalize first asks. The gossip stage never does, so a rank that
// only relays knowledge carries P/8 bytes beside its log and only ranks
// that enter a transfer stage pay for the 8·P-byte table.
type Knowledge struct {
	entries  []RankLoad
	member   []uint64 // bit r set iff rank r is in S^p
	numRanks int

	// load is LOAD^p by rank, nil until first needed, current for the
	// ranks of entries[:tabled]: the load as learned, or what Update last
	// wrote. Slots of unknown ranks are stale and never read — every
	// lookup is guarded by the bitset or walks the log.
	load   []float64
	tabled int

	below []int32 // Canonicalize scratch: members below each bitset word
}

// NewKnowledge returns empty knowledge over numRanks ranks.
func NewKnowledge(numRanks int) *Knowledge {
	return &Knowledge{
		member:   make([]uint64, (numRanks+63)/64),
		numRanks: numRanks,
	}
}

// Add inserts rank r with load l if not yet known and reports whether
// the entry was new. An existing entry is left untouched: the first load
// learned for a rank wins, matching set-union semantics of Algorithm 1
// lines 16–17.
func (k *Knowledge) Add(r Rank, l float64) bool {
	w, bit := uint(r)>>6, uint64(1)<<(uint(r)&63)
	if k.member[w]&bit != 0 {
		return false
	}
	k.member[w] |= bit
	k.entries = append(k.entries, RankLoad{Rank: r, Load: l})
	return true
}

// loads returns the load table, first bringing it up to date with the
// log. Entries past the tabled mark are ranks the table has not seen, so
// scattering them cannot overwrite an Update.
func (k *Knowledge) loads() []float64 {
	if k.tabled < len(k.entries) {
		if k.load == nil {
			k.load = make([]float64, k.numRanks)
		}
		for _, e := range k.entries[k.tabled:] {
			k.load[e.Rank] = e.Load
		}
		k.tabled = len(k.entries)
	}
	return k.load
}

// Update overwrites the known load of rank r; r must already be known.
// The transfer stage uses it to account scheduled transfers (Algorithm 2
// line 12). Updates are visible through Load and the CMF, and survive
// later Adds and Merges, but never reach the log: Entries snapshots and
// payloads keep the loads frozen at gossip time — exactly the staleness
// in-flight messages would carry.
func (k *Knowledge) Update(r Rank, l float64) {
	if !k.Contains(r) {
		panic("core: Knowledge.Update of unknown rank")
	}
	k.loads()[r] = l
}

// Contains reports whether rank r is in S^p.
func (k *Knowledge) Contains(r Rank) bool {
	return k.member[uint(r)>>6]&(1<<(uint(r)&63)) != 0
}

// Load returns the known load of rank r; r must be known.
func (k *Knowledge) Load(r Rank) float64 {
	if !k.Contains(r) {
		panic("core: Knowledge.Load of unknown rank")
	}
	return k.loads()[r]
}

// Len returns |S^p|.
func (k *Knowledge) Len() int { return len(k.entries) }

// NumRanks returns the size of the rank space the knowledge covers.
func (k *Knowledge) NumRanks() int { return k.numRanks }

// Entries returns the knowledge as a payload slice in insertion order.
// The returned slice is a snapshot: later Adds only append past its
// length (or move the log to a larger array, leaving the snapshot's
// behind), so holders — in-flight messages within the current iteration
// — stay valid with no copying. Canonicalize reorders it in place and
// Reset reuses its array, so a snapshot must not be read across either.
func (k *Knowledge) Entries() []RankLoad { return k.entries[:len(k.entries):len(k.entries)] }

// Merge adds all unknown entries from the payload and returns the number
// of new entries (Algorithm 1 lines 16–17).
func (k *Knowledge) Merge(entries []RankLoad) int {
	added := 0
	for _, e := range entries {
		if k.Add(e.Rank, e.Load) {
			added++
		}
	}
	return added
}

// MaxLoad returns the largest known load (0 when empty), used by the
// modified CMF's l_s = max(l_ave, max LOAD^p).
func (k *Knowledge) MaxLoad() float64 {
	load := k.loads()
	max := 0.0
	for _, e := range k.entries {
		if l := load[e.Rank]; l > max {
			max = l
		}
	}
	return max
}

// Canonicalize sorts the log by rank, making the CMF built over it —
// and hence transfer-candidate sampling — independent of the order in
// which gossip messages happened to arrive. Asynchronous transports
// reorder deliveries (and fault injection reorders them aggressively), so
// the distributed balancer canonicalizes at the gossip/transfer stage
// boundary; the synchronous engine keeps raw insertion order, preserving
// its historical byte-identical outputs.
//
// Ranks are unique in the log, so an entry's sorted position is the
// number of members below its rank, a popcount over the bitset, and the
// sort is a permutation applied in place by following its cycles:
// O(P/64 + n), no comparisons. Entries keep the load the log recorded,
// whatever Update has written to the table, which is brought up to date
// first so the transfer stage that follows finds it ready. Previously
// taken Entries snapshots share the reordered array, so it must only be
// called at a quiescent point where none is in flight — the start of a
// transfer stage, after the gossip epoch has terminated, qualifies.
func (k *Knowledge) Canonicalize() {
	k.loads()
	if k.below == nil {
		k.below = make([]int32, len(k.member))
	}
	n := 0
	for w, word := range k.member {
		k.below[w] = int32(n)
		n += bits.OnesCount64(word)
	}
	log := k.entries
	for i := range log {
		for {
			r := uint(log[i].Rank)
			j := int(k.below[r>>6]) + bits.OnesCount64(k.member[r>>6]&(1<<(r&63)-1))
			if j == i {
				break
			}
			log[i], log[j] = log[j], log[i] // log[j] is now final: < n swaps in all
		}
	}
}

// Reset empties the knowledge for reuse in a new iteration: the bitset
// is cleared, the log truncated in place, and the load table — kept
// allocated — forgotten, Updates included, since the next lookup refills
// it from the new log. Snapshots taken before the reset become invalid:
// every driver must deliver (or drop) all in-flight messages of an
// iteration before resetting — the synchronous engine drains its queue
// to quiescence and the distributed balancer closes the iteration's
// epoch, so both satisfy this by construction.
func (k *Knowledge) Reset() {
	clear(k.member)
	k.entries = k.entries[:0]
	k.tabled = 0
}
