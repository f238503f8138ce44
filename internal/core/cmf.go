package core

import (
	"math"
	"math/bits"
	"math/rand"
)

// CMF is the cumulative mass function over a rank's known underloaded
// ranks built by BUILDCMF (Algorithm 2 lines 21–32). Sampling it picks
// the recipient of a prospective transfer, weighting ranks by their load
// deficit relative to the normalization level l_s.
//
// Candidate i — the i-th known rank other than self, in rank order — has
// mass l_s − v_i, where v_i = min(load, vmax). The mass of the first j
// candidates is therefore j·l_s − V_j, with V_j a prefix sum of v, so the
// CMF keeps a Fenwick tree of v alone: node k sums the k&-k values ending
// at candidate k (1-based), and k&-k is also how many candidates it
// counts. Moving l_s re-weights every candidate without touching the
// tree, and a load change touches O(log n) nodes.
//
// The CMF also carries LOAD^p for its candidates, read from the node's
// table by Build: load[i] is candidate i's gossiped load plus the
// transfers the stage has scheduled to it (lines 10 and 12). Nothing
// outside the running stage reads those, so they live here, sized to
// |S^p|, and not on the knowledge.
type CMF struct {
	ranks []Rank
	load  []float64 // load[i] is candidate i's known load, line 12's updates included
	tree  []float64 // tree[k-1] is Fenwick node k over v
	ls    float64   // l_s
	vmax  float64   // l_ave under CMFOriginal (its clamp), +Inf under CMFModified
	floor float64   // max(l_ave, self's v): what l_s never falls below

	// zero marks the candidates whose mass is exactly 0 (v_i = l_s) and
	// live counts the others. A Fenwick sum rounds differently from the
	// linear one, so "no mass left" and "never draw a zero-mass candidate"
	// are decided from these, exactly, and never from a sum.
	zero []uint64
	live int

	z float64 // the total mass n·l_s − V_n, which scales a draw; Raise keeps it in O(1)
}

// Build constructs the CMF in place over the knowledge, excluding the
// building rank itself (a rank never transfers to itself) and reusing the
// receiver's arrays. It reports whether any candidate has positive mass;
// when none has — every known rank sits at or above the normalization
// level — the receiver is left empty and the transfer loop must stop.
//
// For CMFOriginal, l_s = l_ave and v_i = min(l_i, l_ave): an entry at or
// above the average has zero mass (the original algorithm assumes
// strictly underloaded entries; clamping keeps the function well-defined
// when the relaxed criterion has pushed a recipient past the average).
// For CMFModified, v_i = l_i and l_s = max(l_ave, max known load), self's
// included: the paper's §V-C fix that keeps every mass non-negative by
// construction. Either way l_s is the largest v, floored at l_ave.
func (c *CMF) Build(know *Knowledge, self Rank, ave float64, kind CMFKind) bool {
	c.vmax, c.floor = ave, ave
	if kind == CMFModified {
		c.vmax = math.Inf(1)
	}
	// Sized once from the knowledge, not grown by doubling: a scratch's
	// first build starts from nothing.
	if n := know.Len(); cap(c.ranks) < n {
		c.ranks, c.load, c.tree, c.zero = make([]Rank, 0, n), make([]float64, 0, n), make([]float64, 0, n), make([]uint64, (n+63)/64)
	}
	ranks, load, table := c.ranks[:0], c.load[:0], know.table
	// Candidates in rank order, so the CMF — and every sample drawn from
	// it — does not depend on the order gossip arrived in.
	for i, word := range know.member[know.lo:know.hi] {
		for ; word != 0; word &= word - 1 {
			r := Rank((know.lo+i)<<6 | bits.TrailingZeros64(word))
			if r == self {
				c.floor = max(c.floor, min(table.load(r), c.vmax))
				continue
			}
			ranks = append(ranks, r)
			load = append(load, table.load(r))
		}
	}
	c.ranks, c.load = ranks, load
	return c.Rebuild()
}

// Rebuild re-derives the CMF from its candidates' loads, as Build would
// over a knowledge whose table held them: the CMF of line 5 for a pass
// after the first. No gossip runs inside a transfer stage, so the
// candidates cannot change between passes. It reports what Build would.
func (c *CMF) Rebuild() bool {
	tree, ls := c.tree[:len(c.load)], c.floor
	for i, l := range c.load {
		v := min(l, c.vmax)
		// A compare, not max: loads are never NaN, and a rarely taken branch
		// keeps max's NaN and signed-zero handling off the loop's chain.
		if v > ls {
			ls = v
		}
		tree[i] = v
	}
	c.tree, c.ls = tree, ls
	if ls <= 0 { // no deficit is defined
		c.truncate()
		return false
	}
	return c.index()
}

// truncate leaves the receiver with no candidates.
func (c *CMF) truncate() { c.ranks, c.load, c.tree = c.ranks[:0], c.load[:0], c.tree[:0] }

// index turns c.tree, holding each candidate's v, into its Fenwick tree in
// O(n), marking the zero-mass candidates first. It reports whether any
// candidate has positive mass; on false the receiver is left empty.
func (c *CMF) index() bool {
	n := len(c.tree)
	clear(c.zero[:(n+63)/64])
	c.live = n
	for i, v := range c.tree {
		if v >= c.ls {
			c.zero[i>>6] |= 1 << (i & 63)
			c.live--
		}
	}
	if c.live == 0 {
		c.truncate()
		return false
	}
	for k := 1; k <= n; k++ {
		if p := k + k&-k; p <= n {
			c.tree[p-1] += c.tree[k-1]
		}
	}
	c.z = c.prefix(n)
	return true
}

// Raise accounts an accepted transfer (Algorithm 2 line 12) raising
// candidate i's load from `from` to `to`, in O(log n). It leaves the CMF
// BUILDCMF would build over the updated loads: the paper's line-7
// recompute without the rebuild. The caller writes load[i] itself; Raise
// only moves the tree. Within a transfer stage loads only
// rise, so l_s only rises: under CMFModified a load above l_s becomes
// l_s, which leaves the recipient the one zero-mass candidate. to must
// not be below from.
func (c *CMF) Raise(i int, from, to float64) {
	n := len(c.tree)
	from, to = min(from, c.vmax), min(to, c.vmax)
	for k := i + 1; k <= n; k += k & -k {
		c.tree[k-1] += to - from
	}
	c.z -= to - from
	switch {
	case to > c.ls:
		c.z += float64(n) * (to - c.ls)
		c.ls = to
		clear(c.zero[:(n+63)/64])
		c.zero[i>>6] |= 1 << (i & 63)
		c.live = n - 1
	case to == c.ls && from < c.ls:
		c.zero[i>>6] |= 1 << (i & 63)
		c.live--
	}
}

// hasMass reports whether some candidate can still be drawn.
func (c *CMF) hasMass() bool { return c.live > 0 }

// Len returns the number of candidate ranks.
func (c *CMF) Len() int { return len(c.ranks) }

// Rank returns the i-th candidate rank.
func (c *CMF) Rank(i int) Rank { return c.ranks[i] }

// Load returns the i-th candidate's known load, the stage's scheduled
// transfers to it included.
func (c *CMF) Load(i int) float64 { return c.load[i] }

// Sample draws a recipient according to the mass function with one
// rng.Float64, and returns it with its candidate index, the i Raise takes.
func (c *CMF) Sample(rng *rand.Rand) (Rank, int) {
	n := len(c.tree)
	// Descend to the smallest j whose prefix mass exceeds the draw u·z:
	// pos counts the candidates passed so far and left is the draw less
	// their mass. Node pos+step covers the step candidates after them;
	// its mass step·l_s − tree fits in left iff tree ≥ step·l_s − left,
	// a bound that does not wait for the node's load. Buckets with zero
	// mass have an empty range and cannot be selected.
	pos, left := 0, rng.Float64()*c.z
	for step := 1 << (bits.Len(uint(n)) - 1); step > 0; step >>= 1 {
		if k := pos + step; k <= n {
			if x := float64(step)*c.ls - left; c.tree[k-1] >= x {
				pos, left = k, c.tree[k-1]-x
			}
		}
	}
	// Rounding can put the draw a hair past an edge the linear sum would not:
	// step off a zero-mass landing to the nearest live candidate.
	i := min(pos, n-1)
	if c.isZero(i) {
		i = c.nearestLive(i)
	}
	return c.ranks[i], i
}

func (c *CMF) isZero(i int) bool { return c.zero[i>>6]&(1<<(i&63)) != 0 }

// nearestLive returns the first live candidate after i, or failing that
// the last one before it; one exists while live > 0.
func (c *CMF) nearestLive(i int) int {
	for j := i + 1; j < len(c.ranks); j++ {
		if !c.isZero(j) {
			return j
		}
	}
	for j := i - 1; ; j-- {
		if !c.isZero(j) {
			return j
		}
	}
}

// prefix returns the mass of the first j candidates, j·l_s − V_j.
func (c *CMF) prefix(j int) float64 {
	m := 0.0
	for k := j; k > 0; k &= k - 1 {
		m += float64(k&-k)*c.ls - c.tree[k-1]
	}
	return m
}

// mass returns candidate i's mass l_s − v_i, reading v_i from the tree:
// node i+1 less the nodes below it that it sums.
func (c *CMF) mass(i int) float64 {
	if c.isZero(i) {
		return 0
	}
	k := i + 1
	v := c.tree[k-1]
	for j := k - 1; j > k-k&-k; j &= j - 1 {
		v -= c.tree[j-1]
	}
	return c.ls - v
}
