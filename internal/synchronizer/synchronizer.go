// Package synchronizer implements the self-stabilizing synchronizer of
// Sec. 4 (Corollary 1.2): a transformer that converts any synchronous
// self-stabilizing SA algorithm Π into an asynchronous self-stabilizing
// algorithm Π* by running AlgAU as a pulse generator.
//
// The product state of Π* is (q, q′, ν) ∈ Q × Q × T: the node's current
// Π-state, its previous Π-state, and its AlgAU turn. Π* simulates AlgAU on
// the third coordinate; whenever AlgAU performs a clock advance (an AA
// transition ν → ν′), the node applies one synchronous step of Π, feeding it
// the simulated Π-signal: a Π-state r is sensed iff some neighbor exposes a
// product state of the form (r, ·, ν) — a neighbor at the same pulse — or
// (·, r, ν′) — a neighbor that already advanced and archived its previous
// state in the second coordinate.
//
// State space: |Q*| = |T|·|Q|² = O(D·|Q|²), and the stabilization time is
// that of Π plus the O(D³) stabilization of AlgAU.
package synchronizer

import (
	"fmt"
	"math/rand"

	"thinunison/internal/core"
	"thinunison/internal/sa"
	"thinunison/internal/syncsim"
)

// State is the product state (Cur, Prev, Turn) of Π*.
type State[S comparable] struct {
	Cur  S        // the current Π-state q
	Prev S        // the previous Π-state q′
	Turn sa.State // the AlgAU turn ν (dense encoding of the wrapped AU instance)
}

// Synchronizer converts the synchronous node program step into an
// asynchronous one. It is stateless apart from its AU instance and may be
// shared (its Step method is safe for concurrent use as long as rng use is
// externally serialized, which the engines guarantee).
type Synchronizer[S comparable] struct {
	au   *core.AU
	step syncsim.StepFunc[S]
}

// New returns a synchronizer running Π (given as its synchronous round
// function) on top of AlgAU for diameter bound d.
func New[S comparable](d int, step syncsim.StepFunc[S]) (*Synchronizer[S], error) {
	if step == nil {
		return nil, fmt.Errorf("synchronizer: step must be non-nil")
	}
	au, err := core.NewAU(d)
	if err != nil {
		return nil, err
	}
	return &Synchronizer[S]{au: au, step: step}, nil
}

// AU returns the underlying AlgAU instance.
func (sy *Synchronizer[S]) AU() *core.AU { return sy.au }

// StateSpaceSize returns |Q*| = |T|·|Q|² given |Q|; it documents the
// O(D·|Q|²) bound of Corollary 1.2.
func (sy *Synchronizer[S]) StateSpaceSize(numPiStates int) int {
	return sy.au.NumStates() * numPiStates * numPiStates
}

// Initial wraps a Π-state into a fresh product state at the given turn.
func (sy *Synchronizer[S]) Initial(q S, turn core.Turn) (State[S], error) {
	ts, err := sy.au.State(turn)
	if err != nil {
		return State[S]{}, err
	}
	return State[S]{Cur: q, Prev: q, Turn: ts}, nil
}

// Step is the Π* node program; it matches syncsim.StepFunc[State[S]] and is
// meant to be driven by an asyncsim.Engine under any fair scheduler.
func (sy *Synchronizer[S]) Step(self State[S], sensed []State[S], rng *rand.Rand) State[S] {
	// Project the AlgAU signal out of the sensed product states.
	sig := sa.NewSignal(sy.au.NumStates())
	for _, s := range sensed {
		sig.Set(s.Turn)
	}
	typ, nextTurn := sy.au.Classify(self.Turn, sig)
	if typ != core.AA {
		// No clock advance: only the AlgAU coordinate moves.
		return State[S]{Cur: self.Cur, Prev: self.Prev, Turn: nextTurn}
	}

	// Clock advance ν → ν′: run one simulated synchronous step of Π.
	// The simulated Π-signal senses r iff some product state is
	// (r, ·, ν) or (·, r, ν′).
	var piSensed []S
	addUnique := func(r S) {
		for _, x := range piSensed {
			if x == r {
				return
			}
		}
		piSensed = append(piSensed, r)
	}
	// Self first (v itself is at (Cur, Prev, ν)), preserving the engine's
	// convention that sensed[0] is the node's own state.
	addUnique(self.Cur)
	for _, s := range sensed {
		if s.Turn == self.Turn {
			addUnique(s.Cur)
		}
		if s.Turn == nextTurn {
			addUnique(s.Prev)
		}
	}
	p := sy.step(self.Cur, piSensed, rng)
	return State[S]{Cur: p, Prev: self.Cur, Turn: nextTurn}
}
