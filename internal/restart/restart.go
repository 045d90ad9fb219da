// Package restart implements module Restart of Sec. 3.3: a synchronous
// reset primitive with 2D + 1 states σ(0), …, σ(2D) that AlgMIS and AlgLE
// invoke upon detecting an illegal configuration. Its guarantee (Thm. 3.1):
// if some node is in a Restart state at time t0, then there is a time
// t ≤ t0 + 3D at which all nodes exit Restart concurrently, each moving to
// the designer-chosen uniform initial state q*0.
//
// The three rules, for a node v with sensed state set S(v):
//
//  1. if S(v) contains both Restart and non-Restart states, v ← σ(0);
//  2. if S(v) ⊆ Restart states and S(v) ≠ {σ(2D)}, v ← σ(imin + 1) where
//     imin = min{i : σ(i) ∈ S(v)};
//  3. if S(v) = {σ(2D)}, v exits to q*0.
//
// The module is generic over the wrapped algorithm's state type: State[S]
// is either a Restart position or an algorithm state, and Step applies the
// rules around a wrapped algorithm step.
package restart

import (
	"fmt"
	"math/rand"
)

// State is the composite node state: either inside Restart at position
// Pos ∈ {0..2D} (with Alg zeroed for canonical comparability), or outside
// Restart carrying the wrapped algorithm state Alg.
type State[S comparable] struct {
	InRestart bool
	Pos       int
	Alg       S
}

// String renders σ(i) or the wrapped state.
func (s State[S]) String() string {
	if s.InRestart {
		return fmt.Sprintf("σ(%d)", s.Pos)
	}
	return fmt.Sprintf("%v", s.Alg)
}

// Module wires the Restart rules around a wrapped synchronous algorithm.
//
// A Module serves one engine at a time: Step hands the wrapped step its
// sensed states in a buffer the Module owns and reuses, so it must not be
// called concurrently, and the wrapped step must not keep the slice past
// its return. Callers build one Module (one MIS/LE Alg) per engine.
type Module[S comparable] struct {
	d int
	// Init returns the uniform initial state q*0 installed on exit.
	init func() S
	// Step is the wrapped algorithm's round function. Returning detect =
	// true makes the node enter Restart (move to σ(0)) instead of adopting
	// the returned state.
	step func(self S, sensed []S, rng *rand.Rand) (next S, detect bool)
	// sensed is Step's buffer of the wrapped states it hands to step.
	sensed []S
}

// NewModule returns a Restart module for diameter bound d >= 1 wrapping the
// given algorithm step and initial state.
func NewModule[S comparable](
	d int,
	init func() S,
	step func(self S, sensed []S, rng *rand.Rand) (S, bool),
) (*Module[S], error) {
	if d < 1 {
		return nil, fmt.Errorf("restart: diameter bound must be >= 1, got %d", d)
	}
	if init == nil || step == nil {
		return nil, fmt.Errorf("restart: init and step must be non-nil")
	}
	return &Module[S]{d: d, init: init, step: step}, nil
}

// D returns the diameter bound.
func (m *Module[S]) D() int { return m.d }

// MaxPos returns 2D, the index of Restart-exit.
func (m *Module[S]) MaxPos() int { return 2 * m.d }

// Enter returns the Restart-entry state σ(0).
func (m *Module[S]) Enter() State[S] { return State[S]{InRestart: true} }

// Fresh returns the uniform initial state q*0 (wrapped).
func (m *Module[S]) Fresh() State[S] { return State[S]{Alg: m.init()} }

// Step is the composite round function implementing the three Restart rules
// around the wrapped algorithm. It matches syncsim.StepFunc[State[S]].
func (m *Module[S]) Step(self State[S], sensed []State[S], rng *rand.Rand) State[S] {
	anyRestart, anyAlg := false, false
	minPos := m.MaxPos() + 1
	allMax := true
	for _, s := range sensed {
		if s.InRestart {
			anyRestart = true
			if s.Pos < minPos {
				minPos = s.Pos
			}
			if s.Pos != m.MaxPos() {
				allMax = false
			}
		} else {
			anyAlg = true
		}
	}

	if anyRestart {
		switch {
		case anyAlg:
			// Rule 1: mixed neighborhood — (re)enter at σ(0).
			return m.Enter()
		case allMax:
			// Rule 3: S(v) = {σ(2D)} — concurrent exit to q*0.
			return m.Fresh()
		default:
			// Rule 2: climb to σ(imin + 1).
			next := minPos + 1
			if next > m.MaxPos() {
				next = m.MaxPos()
			}
			return State[S]{InRestart: true, Pos: next}
		}
	}

	// Entirely outside Restart: run the wrapped algorithm; a detection
	// enters Restart.
	sensedAlg := m.sensed[:0]
	for _, s := range sensed {
		sensedAlg = append(sensedAlg, s.Alg)
	}
	m.sensed = sensedAlg
	next, detect := m.step(self.Alg, sensedAlg, rng)
	if detect {
		return m.Enter()
	}
	return State[S]{Alg: next}
}
