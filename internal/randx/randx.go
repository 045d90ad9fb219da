// Package randx holds small allocation-conscious randomness helpers shared
// by the simulation engines: a partial Fisher–Yates shuffle for fault
// sampling, the counter-based per-node random streams behind the engines'
// order-independent coin source, and Source, math/rand's
// generator with a state that checkpoints save and set directly, at a cost
// independent of how long the stream has run (see source.go).
package randx

import (
	"fmt"
	"math/rand"
)

// splitMix64 is the splitmix64 finalizer: a cheap invertible avalanche that
// turns a structured counter into a well-mixed 64-bit word. It is the mixing
// primitive behind NodeSeed and Seq.
func splitMix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// NodeSeed maps (run seed, step index, node ID) to a decorrelated stream
// seed. Engines with per-node coins draw every coin toss of node v at step t
// from a Seq seeded with NodeSeed(seed, t, v), so a node's randomness is a
// pure function of the run seed and its coordinates — independent of
// evaluation order. Two finalizer applications
// domain-separate the step and node dimensions.
func NodeSeed(seed int64, step, node int) uint64 {
	return splitMix64(splitMix64(uint64(seed)^0x5851f42d4c957f2d*uint64(step+1)) + uint64(node))
}

// Seq is a splitmix64 sequence implementing rand.Source64. Unlike
// rand.NewSource's lagged-Fibonacci generator (whose seeding walks a
// 607-word table), reseeding a Seq is a single store, so an engine can
// switch to a fresh per-node stream before every transition at no cost.
// Wrap it once per engine: rand.New(&Seq{}).
//
// The zero value is a valid source (the all-zero stream); call Reseed before
// drawing.
type Seq struct {
	state uint64
}

// Reseed restarts the sequence at the given stream seed.
func (s *Seq) Reseed(seed uint64) { s.state = seed }

// Seed implements rand.Source.
func (s *Seq) Seed(seed int64) { s.state = uint64(seed) }

// Uint64 implements rand.Source64: it advances the counter and returns its
// finalized mix.
func (s *Seq) Uint64() uint64 {
	s.state++
	return splitMix64(s.state)
}

// Int63 implements rand.Source.
func (s *Seq) Int63() int64 { return int64(s.Uint64() >> 1) }

// Counting wraps a rand.Source64 and counts draws. It is a pass-through —
// wrapping a source changes nothing about the produced stream, so counted
// engines stay byte-identical to uncounted ones — and the count lives in a
// plain (non-atomic) field: each engine goroutine owns its own Counting and
// the coordinator drains them with Take once per step, turning per-draw
// bookkeeping into an O(P) flush.
type Counting struct {
	src rand.Source64
	n   uint64
}

// NewCounting returns a counting wrapper around src.
func NewCounting(src rand.Source64) *Counting { return &Counting{src: src} }

// Uint64 implements rand.Source64.
func (c *Counting) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

// Int63 implements rand.Source.
func (c *Counting) Int63() int64 {
	c.n++
	return c.src.Int63()
}

// Seed implements rand.Source.
func (c *Counting) Seed(seed int64) { c.src.Seed(seed) }

// Take returns the number of draws since the last Take and resets it.
func (c *Counting) Take() uint64 {
	n := c.n
	c.n = 0
	return n
}

// Pending returns the draws since the last Take without resetting them.
func (c *Counting) Pending() uint64 { return c.n }

// SetPending sets the draws since the last Take: the tally half of a
// checkpoint, whose generator half is the wrapped source's own state.
func (c *Counting) SetPending(n uint64) { c.n = n }

// PartialShuffle maintains *buf as a permutation of 0..n-1 and runs the
// first count swaps of a Fisher–Yates pass over it, returning the count
// distinct elements now at the front. count is clamped to [0, n].
//
// It replaces rng.Perm(n)[:count] on hot paths: repeated calls reuse the
// buffer (zero allocations in steady state) and cost O(count) instead of
// O(n). The buffer stays a valid permutation across calls, so any prefix is
// always a uniform sample without replacement. The returned slice aliases
// *buf and is valid until the next call with the same buffer.
func PartialShuffle(buf *[]int, n, count int, rng *rand.Rand) []int {
	if count < 0 {
		count = 0
	}
	if count > n {
		count = n
	}
	b := *buf
	if len(b) != n {
		b = make([]int, n)
		for i := range b {
			b[i] = i
		}
		*buf = b
	}
	for i := 0; i < count; i++ {
		j := i + rng.Intn(n-i)
		b[i], b[j] = b[j], b[i]
	}
	return b[:count]
}

// CheckPerm returns an error unless p is empty or a permutation of [0, n).
// Restores check saved PartialShuffle buffers and scheduler permutations
// with it: both are trusted as permutations once the run continues.
func CheckPerm(p []int, n int) error {
	if len(p) == 0 {
		return nil
	}
	if len(p) != n {
		return fmt.Errorf("randx: %d-element permutation of [0, %d)", len(p), n)
	}
	seen := make([]bool, n)
	for _, v := range p {
		if v < 0 || v >= n || seen[v] {
			return fmt.Errorf("randx: element %d repeats or leaves [0, %d): not a permutation", v, n)
		}
		seen[v] = true
	}
	return nil
}
