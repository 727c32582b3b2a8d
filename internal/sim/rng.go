package sim

import "math/rand"

// RNG is a deterministic random stream. Every simulation component draws
// from its own stream derived from the master seed, so adding or removing
// a component does not perturb the randomness seen by others.
//
// Seeding is lazy: math/rand's source costs ~5KB and a several-hundred-
// step initialization loop, so the underlying generator is materialized on
// the first draw. Streams that are wired but never drawn from (per-node
// drift streams under deterministic rate models — the common case) cost
// one small struct and nothing else. The draw sequence is byte-identical
// to an eagerly seeded rand.New(rand.NewSource(seed)).
type RNG struct {
	rand   *rand.Rand
	seed   int64
	seeded bool // rand is positioned at the start of stream `seed`
}

// splitMix64 advances a 64-bit state and returns a well-mixed output. It is
// the standard SplitMix64 generator, used here only to derive independent
// stream seeds from (masterSeed, streamID) pairs.
func splitMix64(state uint64) uint64 {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed deterministically mixes a master seed with a stream identifier.
func DeriveSeed(master int64, stream uint64) int64 {
	mixed := splitMix64(uint64(master) ^ splitMix64(stream))
	return int64(mixed)
}

// NewRNG returns an independent random stream for the given component.
func NewRNG(master int64, stream uint64) *RNG {
	return &RNG{seed: DeriveSeed(master, stream)}
}

// Reseed rewinds the stream in place to a fresh derivation of (master,
// stream): subsequent draws are byte-identical to a new NewRNG(master,
// stream). The underlying source (if one was ever materialized) is
// reused, so arena-style system resets re-derive every stream without
// reallocating.
func (r *RNG) Reseed(master int64, stream uint64) {
	r.seed = DeriveSeed(master, stream)
	r.seeded = false
}

// src returns the underlying generator, seeding it on first use (or first
// use after a Reseed). The seeding is a separate method so that this check
// stays small enough to inline into every draw.
func (r *RNG) src() *rand.Rand {
	if !r.seeded {
		r.seedSource()
	}
	return r.rand
}

// seedSource positions the generator at the start of stream r.seed,
// materializing it on first use.
func (r *RNG) seedSource() {
	if r.rand == nil {
		r.rand = rand.New(rand.NewSource(r.seed))
	} else {
		r.rand.Seed(r.seed)
	}
	r.seeded = true
}

// Float64 returns a sample uniformly distributed in [0, 1).
func (r *RNG) Float64() float64 { return r.src().Float64() }

// Intn returns a uniform sample from [0, n); it panics when n ≤ 0.
func (r *RNG) Intn(n int) int { return r.src().Intn(n) }

// UniformIn returns a sample uniformly distributed in [lo, hi].
func (r *RNG) UniformIn(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + r.Float64()*(hi-lo)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}
