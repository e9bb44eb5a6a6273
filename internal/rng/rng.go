// Package rng provides deterministic, splittable pseudo-random streams for
// Monte-Carlo experiments. Every experiment in the repository is reproducible
// from a single seed; sub-streams derived via Split are independent enough
// for simulation purposes and stable across runs and platforms.
package rng

import (
	"math/rand/v2"
)

// Stream is a deterministic random stream, its PCG state held by value.
type Stream struct {
	pcg rand.PCG
}

// New returns a stream seeded from the given 64-bit seed.
func New(seed uint64) *Stream {
	return &Stream{pcg: *rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)}
}

// Split derives an independent sub-stream labelled by index. The derivation
// is deterministic in (parent seed material, index), so parallel experiment
// arms get stable, non-overlapping streams.
func (s *Stream) Split(index uint64) *Stream {
	return Substream(s.Uint64(), index)
}

// Substream is the pure counterpart of Split: it derives the index-labelled
// stream directly from raw seed material, without consuming any caller
// state. Two calls with equal (material, index) return identical streams,
// so workloads sharded by index — e.g. the parallel sampling kernel, which
// draws the material once and derives one substream per sample — produce
// the same randomness for any worker count and assignment order.
func Substream(material, index uint64) *Stream {
	s := &Stream{}
	s.Reseed(material, index)
	return s
}

// Reseed makes s the stream Substream(material, index) returns, in place.
func (s *Stream) Reseed(material, index uint64) {
	s.pcg.Seed(material^mix(index), mix(index+0x632be59bd9b4e019))
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Float64 returns a uniform sample in [0, 1), as math/rand/v2 draws it.
func (s *Stream) Float64() float64 { return float64(s.pcg.Uint64()<<11>>11) / (1 << 53) }

// Skip advances s by the one draw Float64 or Uint64 would take, for a
// caller that knows what the draw would decide without its value.
func (s *Stream) Skip() { s.pcg.Uint64() }

// IntN returns a uniform sample in [0, n).
func (s *Stream) IntN(n int) int { return rand.New(&s.pcg).IntN(n) }

// Uint64 returns a uniform 64-bit sample.
func (s *Stream) Uint64() uint64 { return s.pcg.Uint64() }

// Perm returns a pseudo-random permutation of [0, n).
func (s *Stream) Perm(n int) []int { return rand.New(&s.pcg).Perm(n) }
