// Package sa defines the simplified stone age (SA) computational model of
// Emek & Keren (PODC 2021), itself a restriction of the stone age model of
// Emek & Wattenhofer (PODC 2013).
//
// An algorithm is a 4-tuple Π = ⟨Q, Q_O, ω, δ⟩ over a fixed finite state set
// Q. Nodes are anonymous randomized finite state machines; a node senses, for
// every state q ∈ Q, whether q appears in its inclusive neighborhood (the
// "signal", a bit vector over Q — no counting, no identities, no collision
// detection). When activated, a node draws its next state uniformly from
// δ(q, signal).
//
// States are represented as dense integers in [0, NumStates). Signals are
// bitsets over the state set.
package sa

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
)

// State is a node state: a dense integer in [0, Algorithm.NumStates()).
type State = int

// Signal is the sensing bit vector of a node: bit q is set iff some node in
// the inclusive neighborhood resides in state q. Signals deliberately expose
// only set semantics — SA nodes cannot count occurrences or tell neighbors
// apart.
type Signal struct {
	bits []uint64
}

// NewSignal returns an empty signal over a state space of the given size.
func NewSignal(numStates int) Signal {
	return Signal{bits: make([]uint64, (numStates+63)/64)}
}

// Set marks state q as sensed.
func (s Signal) Set(q State) { s.bits[q>>6] |= 1 << uint(q&63) }

// Has reports whether state q is sensed.
func (s Signal) Has(q State) bool { return s.bits[q>>6]&(1<<uint(q&63)) != 0 }

// Reset clears all bits, reusing the underlying storage.
func (s Signal) Reset() {
	for i := range s.bits {
		s.bits[i] = 0
	}
}

// SubsetOf reports whether every sensed state is among the allowed states.
// It is the Λ ⊆ {...} test that the AlgAU transition conditions are phrased
// in. The allowed list is expected to be tiny (2-3 states); the mask is
// rebuilt per word on the fly so the call performs no allocation — it sits
// on the guard-evaluation path.
func (s Signal) SubsetOf(allowed ...State) bool {
	for i, w := range s.bits {
		if w == 0 {
			continue
		}
		var mask uint64
		for _, q := range allowed {
			if q>>6 == i {
				mask |= 1 << uint(q&63)
			}
		}
		if w&^mask != 0 {
			return false
		}
	}
	return true
}

// States returns the sorted list of sensed states (for tests and traces).
func (s Signal) States() []State {
	var out []State
	for i, w := range s.bits {
		for w != 0 {
			q := i*64 + bits.TrailingZeros64(w)
			out = append(out, q)
			w &= w - 1
		}
	}
	return out
}

// Count returns the number of sensed states.
func (s Signal) Count() int {
	n := 0
	for _, w := range s.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// Equal reports whether two signals over the same state space are identical.
func (s Signal) Equal(t Signal) bool {
	if len(s.bits) != len(t.bits) {
		return false
	}
	for i := range s.bits {
		if s.bits[i] != t.bits[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the signal.
func (s Signal) Clone() Signal {
	out := Signal{bits: make([]uint64, len(s.bits))}
	copy(out.bits, s.bits)
	return out
}

// Words exposes the signal's backing bit words (bit q of word q/64 = state q
// sensed). The slice is the live storage, not a copy; callers must treat it
// as read-only. It is what lets precompiled transition tables and the
// word-parallel kernels test whole signals with a handful of word ops
// instead of per-state Has probes.
func (s Signal) Words() []uint64 { return s.bits }

// Algorithm is a stone age algorithm Π = ⟨Q, Q_O, ω, δ⟩.
//
// Implementations must be deterministic functions of (state, signal, the rng
// stream): all nodes obey the same transition function, and the adversarial
// scheduler is oblivious to the coin tosses.
type Algorithm interface {
	// NumStates returns |Q|. States are 0..NumStates()-1.
	NumStates() int

	// IsOutput reports whether q ∈ Q_O.
	IsOutput(q State) bool

	// Output returns ω(q) for an output state q. The result is
	// task-specific (an AU clock value, a 0/1 LE or MIS mark, ...).
	// It must only be called with IsOutput(q) == true.
	Output(q State) int

	// Transition implements δ: it returns the next state of a node
	// residing in state q that senses the given signal, drawing any random
	// choice from rng. Deterministic algorithms ignore rng. Returning q
	// means the node keeps its state.
	Transition(q State, sig Signal, rng *rand.Rand) State
}

// SelfLooper is an optional extension of Algorithm enabling frontier-sparse
// execution: SelfLoop(q, sig) reports whether δ(q, sig) is deterministically
// the self-loop {q} with no coin toss. Activating such a node provably
// leaves both the configuration and the rng stream untouched, so an engine
// may skip it wholesale — without perturbing the shared coin-toss stream of
// a classic sequential run — until its own state or a neighbor's state
// changes and the pair (q, sig) must be re-certified.
//
// Implementations must be sound: a true verdict for (q, sig) asserts that
// Transition(q, sig, rng) returns q and draws nothing from rng, for every
// rng. False negatives merely cost performance; a false positive breaks the
// frontier/classic equivalence the differential harness enforces.
type SelfLooper interface {
	SelfLoop(q State, sig Signal) bool
}

// Settler is an optional refinement of SelfLooper for algorithms that can
// report the self-loop certificate together with the transition itself —
// one δ evaluation instead of two on no-op steps, which is what the
// frontier engines' certification path uses when available.
type Settler interface {
	SelfLooper
	// TransitionSettled is Transition plus the SelfLoop verdict of (q, sig):
	// settled reports that δ(q, sig) is deterministically {q} with no coin
	// toss (it implies next == q).
	TransitionSettled(q State, sig Signal, rng *rand.Rand) (next State, settled bool)
}

// WordEval is a batch evaluator over one-word signals: for a state space of
// at most 64 states a whole signal fits in a single uint64 (bit q set iff
// state q is sensed), so δ can be evaluated with a handful of word ops per
// node from precompiled masks instead of per-state probes and branchy
// decoding. Engines obtain one via the WordKernel capability and feed it
// batches built by the CSR OR-scan over per-node self-words (see
// BuildSignals).
//
// The contract mirrors sa.Settler, strengthened to batches: implementations
// must be deterministic and coin-free on every (state, signal) pair —
// EvalGood draws nothing from any rng stream, and next[i] == cur[i]
// certifies that δ(cur[i], sws[i]) is the self-loop {cur[i]}, so equality
// doubles as the settled certificate frontier-sparse execution needs. A
// verdict that disagrees with Algorithm.Transition breaks the word/scalar
// byte-identity the differential harnesses enforce.
type WordEval interface {
	// EvalGood computes next[i] = δ(cur[i], sws[i]) for every slot of the
	// batch, fused with the algorithm's local legitimacy predicate (for
	// AlgAU: the good-node predicate — able, no faulty turn sensed, all
	// sensed levels adjacent): bit i of good (good[i>>6], bit i&63) is set
	// iff slot i satisfies the predicate under (cur[i], sws[i]).
	// len(sws) and len(next) must equal len(cur); slices may alias only as
	// cur == next, and it must not allocate. good must have
	// (len(cur)+63)/64 words; every touched word is fully overwritten, with
	// tail bits beyond the batch set to 1 so an all-good batch reads as
	// all-ones. Engines maintain a goodness bit-plane from these words and
	// derive graph-wide stabilization verdicts by popcount instead of
	// per-node monitor callbacks.
	EvalGood(cur []State, sws []uint64, next []State, good []uint64)
}

// PlaneWords returns the number of uint64 words a bit-plane over n nodes
// (one bit per node, such as a word engine's goodness plane) occupies.
func PlaneWords(n int) int { return (n + 63) / 64 }

// BuildSignals is the batched neighborhood-signal builder: an OR-scan over
// the CSR adjacency rows of nodes lo..hi−1, producing each node's inclusive
// one-word signal sws[v−lo] = self[v] | OR_{u ∈ N(v)} self[u]. self[v] must
// be 1 << state(v), the one-word signal contribution of v; offsets/neighbors
// are the raw CSR arrays (graph.Graph.CSR). It costs one load+OR per
// incident edge and builds no per-node Signal; the result feeds
// WordEval.EvalGood directly.
func BuildSignals(self []uint64, offsets, neighbors []int, lo, hi int, sws []uint64) {
	for v := lo; v < hi; v++ {
		sw := self[v]
		for _, u := range neighbors[offsets[v]:offsets[v+1]] {
			sw |= self[u]
		}
		sws[v-lo] = sw
	}
}

// WordKernel is an optional extension of Algorithm enabling word-parallel
// execution (sim.Options.WordParallel): algorithms whose state space fits in
// a machine word can hand the engines a batch evaluator. Kernel returns nil
// when no kernel is available (NumStates() > 64, or a variant the tables
// cannot express); engines silently fall back to the scalar path, exactly
// like the SelfLooper fallback of frontier-sparse mode.
type WordKernel interface {
	Kernel() WordEval
}

// Namer is an optional extension of Algorithm providing human-readable state
// names for traces, diagrams and error messages.
type Namer interface {
	StateName(q State) string
}

// StateName renders state q of alg, using Namer if available.
func StateName(alg Algorithm, q State) string {
	if n, ok := alg.(Namer); ok {
		return n.StateName(q)
	}
	return fmt.Sprintf("q%d", q)
}

// Config is a configuration C : V → Q, stored densely by NodeID.
type Config []State

// Clone returns a deep copy of the configuration.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	copy(out, c)
	return out
}

// Equal reports whether two configurations are identical.
func (c Config) Equal(d Config) bool {
	if len(c) != len(d) {
		return false
	}
	for i := range c {
		if c[i] != d[i] {
			return false
		}
	}
	return true
}

// Random returns a configuration drawing each node's state uniformly from
// [0, numStates). This is the standard adversarial-initialization proxy for
// self-stabilization experiments.
func Random(n, numStates int, rng *rand.Rand) Config {
	c := make(Config, n)
	for i := range c {
		c[i] = rng.Intn(numStates)
	}
	return c
}

// String renders the configuration with the algorithm's state names.
func (c Config) String(alg Algorithm) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, q := range c {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(StateName(alg, q))
	}
	b.WriteByte(']')
	return b.String()
}
