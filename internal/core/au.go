package core

import (
	"fmt"
	"math/rand"
	"sync"

	"thinunison/internal/graph"
	"thinunison/internal/sa"
)

// TransitionType classifies the state transitions of AlgAU (Table 1).
type TransitionType int

// The transition types of Table 1, plus None for a node that keeps its turn.
const (
	None TransitionType = iota
	AA                  // able → able: clock advance by φ
	AF                  // able → faulty: enter the faulty detour
	FA                  // faulty → able: complete the detour one unit inwards
)

// String implements fmt.Stringer.
func (t TransitionType) String() string {
	switch t {
	case None:
		return "none"
	case AA:
		return "AA"
	case AF:
		return "AF"
	case FA:
		return "FA"
	default:
		return fmt.Sprintf("TransitionType(%d)", int(t))
	}
}

// Turn is a state of AlgAU: a level together with an able/faulty flag.
// Faulty turns exist only for 2 ≤ |Level| ≤ k.
type Turn struct {
	Level  Level
	Faulty bool
}

// String renders the turn like the paper: "3" for able, "3^" for faulty.
func (t Turn) String() string {
	if t.Faulty {
		return fmt.Sprintf("%d^", t.Level)
	}
	return fmt.Sprintf("%d", t.Level)
}

// AU is AlgAU for a given diameter bound D. It implements sa.Algorithm with
// the dense state encoding
//
//	able turn ℓ    ↦ Index(ℓ)                 (0 … 2k−1)
//	faulty turn ℓ̂ ↦ 2k + faultyIndex(ℓ)      (2k … 4k−3)
//
// so NumStates() = 4k − 2 with k = 3D + 2: linear in D, independent of n.
type AU struct {
	d       int
	ls      Levels
	variant Variant    // zero value = the paper's algorithm; see variant.go
	pool    sync.Pool  // *tscratch buffers, so the pooled Classify path (D ≥ 11) is allocation-free
	tab     *auTable   // precompiled Table 1 masks; see table.go
	kern    *wordEval  // sa.WordEval over tab, nil when |Q| > 64
	turns   turnTables // per-state level positions and faulty flags; see GraphGood
}

var (
	_ sa.Algorithm  = (*AU)(nil)
	_ sa.Namer      = (*AU)(nil)
	_ sa.SelfLooper = (*AU)(nil)
	_ sa.WordKernel = (*AU)(nil)
)

// NewAU returns AlgAU for diameter bound D >= 1, i.e. k = 3D + 2.
func NewAU(d int) (*AU, error) {
	if d < 1 {
		return nil, fmt.Errorf("core: diameter bound must be >= 1, got %d", d)
	}
	ls, err := NewLevels(3*d + 2)
	if err != nil {
		return nil, err
	}
	a := &AU{d: d, ls: ls}
	a.finish()
	return a, nil
}

// finish precompiles the transition table (and, when the state space fits in
// a machine word, the word kernel) and the per-state turn tables for a
// constructed instance.
func (a *AU) finish() {
	a.pool.New = func() any { return new(tscratch) }
	a.tab = buildAUTable(a)
	if a.tab.single {
		a.kern = &wordEval{t: a.tab}
	}
	nq := a.NumStates()
	a.turns = turnTables{
		posOf:    make([]int32, nq),
		faultyOf: make([]bool, nq),
		order:    int32(a.ls.Order()),
	}
	for q := range nq {
		t := a.Turn(q)
		a.turns.posOf[q] = int32(a.ls.Index(t.Level))
		a.turns.faultyOf[q] = t.Faulty
	}
}

// turnTables are the per-state tables, O(|Q|), that the goodness predicate
// reads instead of decoding turns: the position of q's level on the φ-cycle
// (Levels.Index) and whether q is a faulty turn. Two levels are adjacent
// when their positions differ by 0, ±1 or ±(order−1). An AU builds them
// once; every GoodMonitor of the instance shares them.
type turnTables struct {
	posOf    []int32
	faultyOf []bool
	order    int32
}

// adjacent reports whether the levels at φ-cycle positions a and b are
// adjacent (Levels.Adjacent).
func (tt *turnTables) adjacent(a, b int32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1 || d == tt.order-1
}

// goodIn reports whether node v of g is good under the configuration cfg:
// able, with every neighbor able at an adjacent level. It is NodeGood in
// O(deg v) table reads, the per-node test of GraphGood and of a deferred
// GoodMonitor's scans.
func (tt *turnTables) goodIn(g *graph.Graph, cfg []sa.State, v int) bool {
	qv := cfg[v]
	if tt.faultyOf[qv] {
		return false
	}
	pv := tt.posOf[qv]
	for _, u := range g.Neighbors(v) {
		qu := cfg[u]
		if tt.faultyOf[qu] || !tt.adjacent(pv, tt.posOf[qu]) {
			return false
		}
	}
	return true
}

// D returns the diameter bound the instance was built for.
func (a *AU) D() int { return a.d }

// K returns k = 3D + 2.
func (a *AU) K() int { return a.ls.k }

// Levels returns the level algebra of this instance.
func (a *AU) Levels() Levels { return a.ls }

// NumStates returns |Q| = 4k − 2 = 12D + 6.
func (a *AU) NumStates() int { return 4*a.ls.k - 2 }

// faultyIndex maps a faulty level (2 ≤ |ℓ| ≤ k) to 0..2k−3:
// −k ↦ 0, …, −2 ↦ k−2, 2 ↦ k−1, …, k ↦ 2k−3.
func (a *AU) faultyIndex(l Level) int {
	if l < 0 {
		return int(l) + a.ls.k
	}
	return int(l) + a.ls.k - 3
}

func (a *AU) faultyFromIndex(i int) Level {
	if i < a.ls.k-1 {
		return Level(i - a.ls.k)
	}
	return Level(i - a.ls.k + 3)
}

// State encodes a turn as a dense sa.State.
func (a *AU) State(t Turn) (sa.State, error) {
	if err := a.ls.Check(t.Level); err != nil {
		return 0, err
	}
	if !t.Faulty {
		return a.ls.Index(t.Level), nil
	}
	if abs(t.Level) < 2 {
		return 0, fmt.Errorf("core: no faulty turn for level %d", t.Level)
	}
	return 2*a.ls.k + a.faultyIndex(t.Level), nil
}

// MustState is State for known-valid turns; it panics on invalid input and
// is intended for tests and static tables.
func (a *AU) MustState(t Turn) sa.State {
	q, err := a.State(t)
	if err != nil {
		panic(err)
	}
	return q
}

// Turn decodes a dense state back into a turn.
func (a *AU) Turn(q sa.State) Turn {
	if q < 2*a.ls.k {
		return Turn{Level: a.ls.FromIndex(q)}
	}
	return Turn{Level: a.faultyFromIndex(q - 2*a.ls.k), Faulty: true}
}

// IsOutput reports whether q is an able turn (the output states of AlgAU).
func (a *AU) IsOutput(q sa.State) bool { return q < 2*a.ls.k }

// Output returns the clock value ω(q) ∈ {0, …, 2k−1} of an able turn: the
// position of its level on the φ-cycle.
func (a *AU) Output(q sa.State) int { return q }

// ClockOrder returns |K| = 2k, the order of the output clock group.
func (a *AU) ClockOrder() int { return a.ls.Order() }

// StateName implements sa.Namer.
func (a *AU) StateName(q sa.State) string { return a.Turn(q).String() }

// Classify returns the transition type that a node in state q senses-and-fires
// under sig, together with the successor state. It is the pure decision
// procedure behind Transition and is exported so that tests can check Table 1
// conformance exhaustively.
//
// Classify is a table lookup: every Table 1 condition — protection, the
// AF inward-faulty sense, the AA Λ ⊆ {ℓ, φ(ℓ)} subset test, the FA outward
// guard (with the EagerFA/DisableFaultPropagation ablations folded in at
// construction) — is a precompiled mask test against the signal words
// (table.go). The single-word rows are built whenever the 2k level
// positions fit in one machine word (order ≤ 64, D ≤ 10), so a signal of
// one or two words is classified in registers, scratch-free; wider
// instances take the pooled stride-word path.
func (a *AU) Classify(q sa.State, sig sa.Signal) (TransitionType, sa.State) {
	if a.tab.single {
		return a.tab.classifyWord(q, sig.Words()[0])
	}
	if t := a.tab; t.rows {
		// Two words: the faulty ordinals are the bits of the pair from
		// position order up, shifted down into one word. At order = 64 the
		// first shift yields 0 and the second shifts by 0, leaving w[1].
		w := sig.Words()
		sh := uint(t.order)
		return t.classifyMasks(q, w[0], w[0]>>sh|w[1]<<(64-sh))
	}
	s, ok := a.pool.Get().(*tscratch)
	if !ok {
		s = new(tscratch)
	}
	typ, next := a.tab.classifySig(q, sig, s)
	a.pool.Put(s)
	return typ, next
}

// Kernel implements sa.WordKernel: the batch word evaluator over the
// precompiled table, or nil when |Q| > 64 and signals do not fit in a
// machine word (engines then silently stay on the scalar path).
func (a *AU) Kernel() sa.WordEval {
	if a.kern == nil {
		return nil
	}
	return a.kern
}

// Psi exposes the outwards operator of the instance's level algebra.
func (a *AU) Psi(l Level, j int) (Level, bool) { return a.ls.Psi(l, j) }

// Transition implements sa.Algorithm. AlgAU is deterministic; rng is unused.
func (a *AU) Transition(q sa.State, sig sa.Signal, _ *rand.Rand) sa.State {
	_, next := a.Classify(q, sig)
	return next
}

// SelfLoop implements sa.SelfLooper: AlgAU is deterministic and coin-free,
// so a node is settled exactly when its Table 1 verdict is None — δ(q, sig)
// keeps returning q until the signal changes, which is what lets
// frontier-sparse engines skip it entirely.
func (a *AU) SelfLoop(q sa.State, sig sa.Signal) bool {
	typ, _ := a.Classify(q, sig)
	return typ == None
}

// TransitionSettled implements sa.Settler: the transition and its self-loop
// certificate from a single Table 1 classification.
func (a *AU) TransitionSettled(q sa.State, sig sa.Signal, _ *rand.Rand) (sa.State, bool) {
	typ, next := a.Classify(q, sig)
	return next, typ == None
}
