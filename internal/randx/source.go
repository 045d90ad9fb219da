package randx

import (
	"fmt"
	"math/rand"
)

// The generator of math/rand: an additive lagged-Fibonacci sequence
// x_k = x_{k−607} + x_{k−273} mod 2^64 (Mitchell and Reeds).
const (
	srcLen   = 607
	srcTap   = 273
	int32max = 1<<31 - 1
)

// Source is math/rand's additive lagged-Fibonacci generator with its state
// exposed: seeded alike it produces exactly the outputs of
// rand.NewSource(seed), and State/SetState save and set the whole generator
// at a cost independent of how many values it has drawn. Checkpointed rng
// streams use it so a restore sets the stream instead of replaying it.
type Source struct {
	tap  int
	feed int
	vec  [srcLen]uint64
}

// NewSource returns a Source seeded like rand.NewSource(seed), at one
// allocation and about a third of rand.NewSource's time: its window words
// come from a table of multiplier powers (see Seed), not from the seeding
// walk.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed implements rand.Source with math/rand's seeding: the seed is reduced
// modulo 2^31−1 (0 becomes 89482311), and each window word is three steps of
// the Park–Miller sequence from it, xored with math/rand's seeding table.
func (s *Source) Seed(seed int64) {
	seedWindow(seed, &s.vec, &cooked)
	s.tap = 0
	s.feed = srcLen - srcTap
}

// Uint64 implements rand.Source64.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// State returns the generator state: the 607-word window, then the tap and
// feed indices.
func (s *Source) State() []uint64 {
	st := make([]uint64, srcLen+2)
	copy(st, s.vec[:])
	st[srcLen] = uint64(s.tap)
	st[srcLen+1] = uint64(s.feed)
	return st
}

// SetState sets the generator to a state returned by State. It rejects a
// state of the wrong length or with indices that no draw sequence reaches,
// leaving the generator unchanged.
func (s *Source) SetState(st []uint64) error {
	if len(st) != srcLen+2 {
		return fmt.Errorf("randx: source state has %d words, want %d", len(st), srcLen+2)
	}
	tap, feed := st[srcLen], st[srcLen+1]
	if tap >= srcLen || feed >= srcLen || feed != (tap+srcLen-srcTap)%srcLen {
		return fmt.Errorf("randx: source state indices (tap %d, feed %d) out of range", tap, feed)
	}
	copy(s.vec[:], st)
	s.tap, s.feed = int(tap), int(feed)
	return nil
}

// Park–Miller parameters of math/rand's seeding sequence
// x_{j+1} = 48271·x_j mod (2^31−1).
const (
	pmMul  = 48271
	pmSkip = 20 // steps the seeding walk discards before the first word
)

// pmPow holds 48271^j mod (2^31−1) for every step j the window words read:
// word i is made of x_j for j = 21+3i, 22+3i and 23+3i, and x_j is the
// normalized seed times 48271^j mod (2^31−1). Built once, it turns the
// 1,841 serial steps of the seeding walk into independent products.
var pmPow = func() (t [3 * srcLen]uint32) {
	p := uint64(1)
	for range pmSkip + 1 {
		p = p * pmMul % int32max
	}
	for j := range t {
		t[j] = uint32(p)
		p = p * pmMul % int32max
	}
	return t
}()

// mulMod returns a·b mod (2^31−1) for a, b < 2^31−1. The product is folded
// once at bit 31 (2^31 ≡ 1): its low half is below 2^31 and its high half
// below 2^31−3, so the sum stays below twice the modulus and one
// conditional subtract finishes the reduction.
func mulMod(a, b uint64) uint64 {
	p := a * b
	p = p&int32max + p>>31
	if p >= int32max {
		p -= int32max
	}
	return p
}

// seedWindow writes math/rand's per-seed window words into vec, each xored
// with mask[i]: Seed passes the seeding table, which yields the seeded
// window; recoverCooked passes a seeded window, which yields the table.
func seedWindow(seed int64, vec, mask *[srcLen]uint64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range vec {
		p := pmPow[3*i : 3*i+3 : 3*i+3]
		u := mulMod(x, uint64(p[0]))<<40 ^ mulMod(x, uint64(p[1]))<<20 ^ mulMod(x, uint64(p[2]))
		vec[i] = u ^ mask[i]
	}
}

// cooked is math/rand's seeding table, which the package does not export.
// It is recovered once from the generator itself: 607 draws from a seeded
// rand.Source leave the window holding exactly those draws, stepping the
// recurrence back 607 times from there yields the window right after
// seeding, and the xor with that seed's words leaves the table.
var cooked = recoverCooked()

func recoverCooked() [srcLen]uint64 {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	s := Source{feed: srcLen - srcTap}
	for range srcLen {
		s.Uint64() // advance tap and feed; the value is overwritten
		s.vec[s.feed] = src.Uint64()
	}
	// tap and feed are back at their seeded positions, which are also the
	// slots of the last draw: undo the draws newest first.
	for range srcLen {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap = (s.tap + 1) % srcLen
		s.feed = (s.feed + 1) % srcLen
	}
	var table [srcLen]uint64
	seedWindow(seed, &table, &s.vec)
	return table
}
