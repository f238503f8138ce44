package core

import "math/rand"

// deriveSeed mixes a base seed with stream identifiers (rank, trial, …)
// into an independent-looking seed using the splitmix64 finalizer, so
// per-rank and per-trial random streams do not correlate.
func deriveSeed(base int64, streams ...int64) int64 {
	x := uint64(base) ^ 0x9e3779b97f4a7c15
	for _, s := range streams {
		x ^= uint64(s) + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x = splitmix64(x)
	}
	return int64(splitmix64(x) >> 1)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// splitmixSource is the generator behind every balancer stream: a
// splitmix64 counter. Unlike math/rand's default lagged-Fibonacci
// source, seeding is O(1) over 8 bytes of state instead of repopulating
// a ~5 KiB feed array — the balancers reseed two streams per rank per
// trial, which at 4096 ranks made seeding itself a top CPU entry.
type splitmixSource struct{ state uint64 }

func (s *splitmixSource) Seed(seed int64) { s.state = uint64(seed) }

func (s *splitmixSource) Uint64() uint64 {
	v := splitmix64(s.state)
	s.state += 0x9e3779b97f4a7c15
	return v
}

func (s *splitmixSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// SeededRNG returns a generator for an independent random stream derived
// from a base seed and stream identifiers (rank, trial, …).
func SeededRNG(base int64, streams ...int64) *rand.Rand {
	return rand.New(&splitmixSource{state: uint64(deriveSeed(base, streams...))})
}

// Reseed re-points an existing generator at the given stream. Seeding a
// reused *rand.Rand produces the exact same sequence as allocating a
// fresh one with SeededRNG, which lets the drivers recycle their per-rank
// generators across trials, and a scenario its one generator across
// items, without allocating.
func Reseed(rng *rand.Rand, base int64, streams ...int64) {
	rng.Seed(deriveSeed(base, streams...))
}

// ReseedTransfer re-points a rank's transfer-stage generator at a trial's
// stream: the transfer twin of InformState.StartTrial, which both drivers
// call at every trial, so they draw the same dice.
func ReseedTransfer(rng *rand.Rand, seed int64, trial int, self Rank) {
	Reseed(rng, seed, int64(trial), int64(self), 0x7af)
}

// permInto fills buf with a pseudo-random permutation of [0, len(buf)),
// drawing from rng exactly as rand.Perm does — the inside-out
// Fisher–Yates of Knuth — so results are bit-identical to a Perm call
// while reusing the caller's buffer.
func permInto(rng *rand.Rand, buf []int) {
	for i := range buf {
		j := rng.Intn(i + 1)
		buf[i] = buf[j]
		buf[j] = i
	}
}
