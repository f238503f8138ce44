package core

import (
	"math/bits"
	"math/rand"
	"sort"
)

// CMF is the cumulative mass function over a rank's known underloaded
// ranks built by BUILDCMF (Algorithm 2 lines 21–32). Sampling it picks
// the recipient of a prospective transfer, weighting ranks by their load
// deficit relative to the normalization level l_s.
type CMF struct {
	ranks []Rank
	cum   []float64
}

// BuildCMF constructs the CMF over the knowledge entries, excluding the
// building rank itself (a rank never transfers to itself). ok is false
// when no candidate has positive probability — every known rank sits at
// or above the normalization level — in which case sampling is
// impossible and the transfer loop must stop.
//
// For CMFOriginal, l_s = l_ave and any entry at or above the average
// contributes zero mass (the original algorithm assumes strictly
// underloaded entries; clamping keeps the function well-defined when the
// relaxed criterion has pushed a recipient past the average).
// For CMFModified, l_s = max(l_ave, max known load), the paper's §V-C
// fix that keeps every probability non-negative by construction.
func BuildCMF(know *Knowledge, self Rank, ave float64, kind CMFKind) (CMF, bool) {
	var c CMF
	ok := c.Rebuild(know, self, ave, kind)
	return c, ok
}

// Rebuild reconstructs the CMF in place over the current knowledge,
// reusing the receiver's backing arrays. It is the allocation-free core
// of BuildCMF, used by the transfer stage when cfg.RecomputeCMF rebuilds
// after every accepted transfer (line 7). It reports whether any
// candidate has positive mass; on false the receiver is left empty.
func (c *CMF) Rebuild(know *Knowledge, self Rank, ave float64, kind CMFKind) bool {
	c.ranks = c.ranks[:0]
	c.cum = c.cum[:0]
	ls := ave
	if kind == CMFModified {
		if m := know.MaxLoad(); m > ls {
			ls = m
		}
	}
	if ls <= 0 {
		return false
	}
	// Sized once from the knowledge, not grown by doubling: every
	// overloaded rank's first rebuild of an invocation starts from nothing.
	if n := know.Len(); cap(c.ranks) < n {
		c.ranks, c.cum = make([]Rank, 0, n), make([]float64, 0, n)
	}
	// Candidates in rank order, so the CMF — and every sample drawn from
	// it — does not depend on the order gossip arrived in.
	load := know.loads()
	z := 0.0
	for i, word := range know.member[know.lo:know.hi] {
		for ; word != 0; word &= word - 1 {
			r := Rank((know.lo+i)<<6 | bits.TrailingZeros64(word))
			if r == self {
				continue
			}
			p := 1 - load[r]/ls
			if p < 0 {
				p = 0
			}
			z += p
			c.ranks = append(c.ranks, r)
			c.cum = append(c.cum, z)
		}
	}
	if z <= 0 {
		c.ranks = c.ranks[:0]
		c.cum = c.cum[:0]
		return false
	}
	// Normalize so the final cumulative value is exactly 1.
	for i := range c.cum {
		c.cum[i] /= z
	}
	c.cum[len(c.cum)-1] = 1
	return true
}

// Len returns the number of candidate ranks.
func (c CMF) Len() int { return len(c.ranks) }

// Sample draws a recipient rank according to the mass function.
func (c CMF) Sample(rng *rand.Rand) Rank {
	u := rng.Float64()
	// Smallest i with cum[i] > u identifies the bucket whose cumulative
	// range (cum[i-1], cum[i]] contains u; buckets with zero mass have an
	// empty range and cannot be selected.
	i := sort.Search(len(c.cum), func(j int) bool { return c.cum[j] > u })
	if i >= len(c.ranks) {
		i = len(c.ranks) - 1
	}
	return c.ranks[i]
}

// Blend returns a CMF whose mass mixes this one with normalized
// per-rank weights: p'_i = (1−bias)·p_i + bias·w_i/Σw. It implements
// the communication-aware recipient selection of the §VII extension.
// When the weights sum to zero (the task has no partners on any
// candidate) the receiver is returned unchanged.
func (c CMF) Blend(weight func(Rank) float64, bias float64) CMF {
	if bias <= 0 || len(c.ranks) == 0 {
		return c
	}
	ws := make([]float64, len(c.ranks))
	sum := 0.0
	for i, r := range c.ranks {
		w := weight(r)
		if w < 0 {
			w = 0
		}
		ws[i] = w
		sum += w
	}
	if sum == 0 {
		return c
	}
	out := CMF{ranks: c.ranks, cum: make([]float64, len(c.cum))}
	acc := 0.0
	for i := range c.ranks {
		acc += (1-bias)*c.Prob(i) + bias*ws[i]/sum
		out.cum[i] = acc
	}
	out.cum[len(out.cum)-1] = 1
	return out
}

// Prob returns the probability mass assigned to the i-th candidate, for
// inspection in tests.
func (c CMF) Prob(i int) float64 {
	if i == 0 {
		return c.cum[0]
	}
	return c.cum[i] - c.cum[i-1]
}

// Rank returns the i-th candidate rank.
func (c CMF) Rank(i int) Rank { return c.ranks[i] }
