// Package core implements AlgAU, the thin deterministic self-stabilizing
// asynchronous unison (AU) algorithm of Emek & Keren (PODC 2021, Sec. 2) —
// the paper's primary contribution.
//
// For a diameter bound D, fix k = 3D + 2. The algorithm's states ("turns")
// are partitioned into 2k able turns {ℓ : 1 ≤ |ℓ| ≤ k} and 2(k−1) faulty
// turns {ℓ̂ : 2 ≤ |ℓ| ≤ k}, for a total of 4k − 2 = O(D) states — linear in
// the diameter bound and independent of the number of nodes. The able turns
// are the output states; they are identified with the values of the cyclic
// clock group K of order 2k via the forward operator φ.
//
// A node performs one of three transition types when activated (Table 1 of
// the paper):
//
//	AA  ℓ → φ(ℓ)      if the node is good and Λ ⊆ {ℓ, φ(ℓ)}
//	AF  ℓ → ℓ̂        if the node is not protected, or senses ψ⁻¹(ℓ)-hat
//	FA  ℓ̂ → ψ⁻¹(ℓ)   if the node senses no level in Ψ>(ℓ)
//
// Theorem 1.1: AlgAU is a deterministic self-stabilizing AU algorithm for
// D-bounded-diameter graphs with state space O(D) and stabilization time
// O(D³) rounds.
package core

import (
	"fmt"
)

// Level is a clock level ℓ ∈ {−k, …, −1, 1, …, k} (zero is not a level).
type Level int

// InvalidLevelError reports a level outside ±{1..k}.
type InvalidLevelError struct {
	Level Level
	K     int
}

func (e *InvalidLevelError) Error() string {
	return fmt.Sprintf("core: level %d outside ±{1..%d}", e.Level, e.K)
}

// Levels captures the level algebra of AlgAU for a fixed k: the forward
// operator φ (the clock's +1), the outwards operator ψ, level adjacency and
// the cyclic level distance. It is a value type; copy freely.
type Levels struct {
	k int
}

// NewLevels returns the level algebra for parameter k >= 2.
func NewLevels(k int) (Levels, error) {
	if k < 2 {
		return Levels{}, fmt.Errorf("core: k must be at least 2, got %d", k)
	}
	return Levels{k: k}, nil
}

// K returns the parameter k (levels range over ±{1..k}).
func (ls Levels) K() int { return ls.k }

// Order returns |K| = 2k, the order of the clock group.
func (ls Levels) Order() int { return 2 * ls.k }

// Valid reports whether ℓ is a level, i.e. 1 ≤ |ℓ| ≤ k.
func (ls Levels) Valid(l Level) bool {
	a := abs(l)
	return a >= 1 && a <= Level(ls.k)
}

// Check returns an error if ℓ is not a valid level.
func (ls Levels) Check(l Level) error {
	if !ls.Valid(l) {
		return &InvalidLevelError{Level: l, K: ls.k}
	}
	return nil
}

// Index maps a level to its position on the φ-cycle:
// −k ↦ 0, …, −1 ↦ k−1, 1 ↦ k, …, k ↦ 2k−1. The forward operator φ is +1
// modulo 2k in this indexing, so Index doubles as the clock output ω.
func (ls Levels) Index(l Level) int {
	if l < 0 {
		return int(l) + ls.k
	}
	return int(l) + ls.k - 1
}

// FromIndex is the inverse of Index. An index outside [0, 2k) is first
// reduced modulo 2k; every call from Turn is already in range and pays no
// division.
func (ls Levels) FromIndex(i int) Level {
	if uint(i) >= uint(ls.Order()) {
		i = ((i % ls.Order()) + ls.Order()) % ls.Order()
	}
	if i < ls.k {
		return Level(i - ls.k)
	}
	return Level(i - ls.k + 1)
}

// Phi is the forward operator φ: −1 → 1, k → −k, otherwise ℓ → ℓ+1.
func (ls Levels) Phi(l Level) Level {
	switch {
	case l == -1:
		return 1
	case l == Level(ls.k):
		return Level(-ls.k)
	default:
		return l + 1
	}
}

// PhiJ applies φ j times; negative j applies the inverse (φ is a bijection).
func (ls Levels) PhiJ(l Level, j int) Level {
	return ls.FromIndex(ls.Index(l) + j)
}

// Adjacent reports whether ℓ and ℓ' are adjacent levels:
// ℓ = ℓ', ℓ = φ(ℓ') or ℓ' = φ(ℓ).
func (ls Levels) Adjacent(l, m Level) bool {
	return l == m || ls.Phi(l) == m || ls.Phi(m) == l
}

// Psi is the outwards operator ψ^j(ℓ): the level with the same sign as ℓ and
// absolute value |ℓ|+j. It requires −|ℓ| < j ≤ k−|ℓ|; ok is false otherwise.
func (ls Levels) Psi(l Level, j int) (Level, bool) {
	a := int(abs(l)) + j
	if a < 1 || a > ls.k {
		return 0, false
	}
	if l < 0 {
		return Level(-a), true
	}
	return Level(a), true
}

// Outwards reports whether m ∈ Ψ>(ℓ): same sign as ℓ and |m| > |ℓ|.
func (ls Levels) Outwards(l, m Level) bool {
	return sameSign(l, m) && abs(m) > abs(l)
}

// StrictlyOutwards reports whether m ∈ Ψ≫(ℓ): same sign, |m| > |ℓ|+1.
func (ls Levels) StrictlyOutwards(l, m Level) bool {
	return sameSign(l, m) && abs(m) > abs(l)+1
}

// Inwards reports whether m ∈ Ψ<(ℓ): same sign as ℓ and |m| < |ℓ|.
func (ls Levels) Inwards(l, m Level) bool {
	return sameSign(l, m) && abs(m) < abs(l)
}

// Dist is the level distance (Sec. 2.3.1): the cyclic distance between the
// positions of ℓ and ℓ' on the 2k-cycle. It is a metric.
func (ls Levels) Dist(l, m Level) int {
	d := ls.Index(l) - ls.Index(m)
	if d < 0 {
		d = -d
	}
	if o := ls.Order() - d; o < d {
		return o
	}
	return d
}

// All returns every valid level in increasing order: −k..−1, 1..k.
func (ls Levels) All() []Level {
	out := make([]Level, 0, ls.Order())
	for l := -ls.k; l <= ls.k; l++ {
		if l != 0 {
			out = append(out, Level(l))
		}
	}
	return out
}

func abs(l Level) Level {
	if l < 0 {
		return -l
	}
	return l
}

func sameSign(l, m Level) bool {
	return (l > 0) == (m > 0)
}
