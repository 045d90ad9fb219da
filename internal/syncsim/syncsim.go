// Package syncsim holds the program model of procedural SA algorithms —
// AlgMIS and AlgLE of Sec. 3 are presented in this style, for the
// synchronous schedule (A_t = V for all t, so rounds and steps coincide):
// the node-program signature StepFunc, the sensing helpers Sensed and
// MinSensed, and the dirty-set stability Checker. The engine that runs these programs, under the
// synchronous schedule (its nil scheduler) or any other, is
// asyncsim.Engine.
//
// Sensing retains the stone age set-broadcast semantics: in each round a node
// observes the *set* of distinct states present in its inclusive
// neighborhood, with no multiplicities and no identities. A node's program is
// a pure function of (own state, sensed state set, coin tosses); all nodes
// run the same program (anonymity and size-uniformity are preserved — the
// program never sees node IDs or n).
package syncsim

import "math/rand"

// StepFunc is a node program: given the node's current state and the
// deduplicated set of states sensed in its inclusive neighborhood, it returns
// the next state. Randomness must come only from rng.
//
// The sensed slice is sorted by first occurrence over ascending neighbor ID
// for determinism, but programs must treat it as an unordered set: the SA
// model reveals neither order, nor multiplicity, nor identity.
type StepFunc[S comparable] func(self S, sensed []S, rng *rand.Rand) S

// Sensed is a helper for node programs: it reports whether any sensed state
// satisfies pred.
func Sensed[S comparable](sensed []S, pred func(S) bool) bool {
	for _, s := range sensed {
		if pred(s) {
			return true
		}
	}
	return false
}

// MinSensed returns the minimum of f over the sensed states.
func MinSensed[S comparable](sensed []S, f func(S) int) int {
	best := f(sensed[0])
	for _, s := range sensed[1:] {
		if v := f(s); v < best {
			best = v
		}
	}
	return best
}
