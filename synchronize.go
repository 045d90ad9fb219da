package thinunison

import (
	"fmt"
	"math/rand"

	"thinunison/internal/asyncsim"
	"thinunison/internal/randx"
	"thinunison/internal/synchronizer"
)

// SyncProgram is an anonymous synchronous node program over an arbitrary
// comparable state type: given the node's own state and the set of distinct
// states sensed in its inclusive neighborhood, it returns the next state.
// Programs must be anonymous and size-uniform (no node IDs, no n) and treat
// the sensed slice as an unordered set — the stone age model reveals neither
// order nor multiplicity.
type SyncProgram[S comparable] func(self S, sensed []S, rng *rand.Rand) S

// Synchronized runs a user-provided synchronous node program under an
// asynchronous scheduler via the self-stabilizing synchronizer of
// Corollary 1.2: AlgAU supplies pulses, and the program executes one
// simulated synchronous round per pulse. If the program is self-stabilizing,
// so is the combined asynchronous system.
type Synchronized[S comparable] struct {
	sy  *synchronizer.Synchronizer[S]
	eng *asyncsim.Engine[synchronizer.State[S]]
}

// NewSynchronized wraps program on g. The initial Π-states are taken from
// initial (length n); the AlgAU turns start adversarially (random), so the
// first simulated rounds begin only after the pulse clock stabilizes.
func NewSynchronized[S comparable](g *Graph, program SyncProgram[S], initial []S, opts ...Option) (*Synchronized[S], error) {
	if len(initial) != g.N() {
		return nil, fmt.Errorf("thinunison: %d initial states for %d nodes", len(initial), g.N())
	}
	o, err := buildOptions(g, opts)
	if err != nil {
		return nil, err
	}
	sy, err := synchronizer.New[S](o.d, func(self S, sensed []S, rng *rand.Rand) S {
		return program(self, sensed, rng)
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(randx.NewSource(o.seed))
	states := make([]synchronizer.State[S], g.N())
	for v := range states {
		states[v] = synchronizer.State[S]{
			Cur:  initial[v],
			Prev: initial[v],
			Turn: rng.Intn(sy.AU().NumStates()),
		}
	}
	eng, err := asyncsim.New(g, sy.Step, states, o.sched, o.seed)
	if err != nil {
		return nil, err
	}
	return &Synchronized[S]{sy: sy, eng: eng}, nil
}

// Step executes one asynchronous scheduler step.
func (s *Synchronized[S]) Step() { s.eng.Step() }

// RunRounds executes the given number of additional asynchronous rounds.
// Post-stabilization, each round drives at least one simulated synchronous
// round of the wrapped program at every node (amortized).
func (s *Synchronized[S]) RunRounds(rounds int) { s.eng.RunRounds(rounds) }

// Rounds returns the number of completed asynchronous rounds.
func (s *Synchronized[S]) Rounds() int { return s.eng.Rounds() }

// States returns each node's current simulated Π-state.
func (s *Synchronized[S]) States() []S {
	raw := s.eng.States()
	out := make([]S, len(raw))
	for v, st := range raw {
		out[v] = st.Cur
	}
	return out
}

// RunUntil runs until cond holds over the simulated Π-states or maxRounds
// asynchronous rounds elapse; it reports the rounds consumed and success.
func (s *Synchronized[S]) RunUntil(cond func(states []S) bool, maxRounds int) (int, bool) {
	return s.eng.RunUntil(func(e *asyncsim.Engine[synchronizer.State[S]]) bool {
		raw := e.States()
		pi := make([]S, len(raw))
		for v, st := range raw {
			pi[v] = st.Cur
		}
		return cond(pi)
	}, maxRounds)
}

// StateSpaceSize returns |Q*| = |T|·|Q|² for a program with numStates
// states (the Corollary 1.2 accounting).
func (s *Synchronized[S]) StateSpaceSize(numStates int) int {
	return s.sy.StateSpaceSize(numStates)
}
