// Package mis implements AlgMIS (Sec. 3.1): a synchronous self-stabilizing
// maximal independent set algorithm for D-bounded-diameter graphs with state
// space O(D) that stabilizes in O((D + log n)·log n) rounds in expectation
// and whp (Theorem 1.4).
//
// The algorithm composes three modules on top of module Restart:
//
//   - RandPhase divides the execution into phases of length X + D + 2 where
//     X = max of n i.i.d. Geom(p0) coins — so every phase is Θ(log n) whp
//     and all nodes start and finish each phase concurrently.
//   - Compete runs, within each phase, a sequence of two-round coin tossing
//     trials among the still-undecided candidates; a surviving candidate
//     whose random trial word beats all its undecided neighbors joins IN at
//     the phase's penultimate round, and its neighbors join OUT in response.
//   - DetectMIS runs indefinitely over decided nodes and detects local
//     faults (two adjacent IN nodes, or an OUT node with no IN neighbor)
//     with constant probability per round, invoking Restart.
//
// All communication is stone age set-broadcast sensing: a node observes only
// which composite states appear in its inclusive neighborhood.
package mis

import (
	"fmt"
	"math/rand"

	"thinunison/internal/graph"
	"thinunison/internal/restart"
	"thinunison/internal/syncsim"
)

// Decision is a node's MIS output.
type Decision int

// Decisions. Undecided nodes have no output yet; In/Out are output 1/0.
const (
	Undecided Decision = iota + 1
	In
	Out
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case Undecided:
		return "undecided"
	case In:
		return "IN"
	case Out:
		return "OUT"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// State is the composite per-node state of AlgMIS (excluding the Restart
// wrapper). Every field ranges over a constant-size or O(D) domain, so the
// total state space is O(D).
type State struct {
	// RandPhase.
	Step   int  // 0 … D+2
	Flag   bool // still tossing the phase-length coin
	Parity bool // two-round trial sub-phase (false = toss round)

	// Compete.
	Decision  Decision
	Candidate bool
	Coin      bool

	// DetectMIS: temporary identifier in 1..K for IN nodes, 0 otherwise.
	TempID int
}

// Params configures AlgMIS.
type Params struct {
	// D is the diameter bound.
	D int
	// P0 is the phase-coin reset probability (0 < P0 < 1); smaller values
	// give longer phases. Defaults to 0.3.
	P0 float64
	// K is the temporary-identifier alphabet size for DetectMIS (K >= 2);
	// adjacent IN nodes are detected with probability >= 1 − 1/K per
	// round. Defaults to 4.
	K int
}

func (p *Params) defaults() error {
	if p.D < 1 {
		return fmt.Errorf("mis: diameter bound must be >= 1, got %d", p.D)
	}
	if p.P0 == 0 {
		p.P0 = 0.3
	}
	if p.P0 < 0 || p.P0 >= 1 {
		return fmt.Errorf("mis: P0 must be in (0,1), got %v", p.P0)
	}
	if p.K == 0 {
		p.K = 4
	}
	if p.K < 2 {
		return fmt.Errorf("mis: K must be >= 2, got %d", p.K)
	}
	return nil
}

// Alg is AlgMIS: the module composition wrapped in Restart. Like its
// restart.Module, an Alg serves one engine at a time.
type Alg struct {
	p   Params
	mod *restart.Module[State]
}

// New returns AlgMIS for the given parameters.
func New(p Params) (*Alg, error) {
	if err := p.defaults(); err != nil {
		return nil, err
	}
	a := &Alg{p: p}
	mod, err := restart.NewModule[State](p.D, a.fresh, a.step)
	if err != nil {
		return nil, err
	}
	a.mod = mod
	return a, nil
}

// Params returns the resolved parameters.
func (a *Alg) Params() Params { return a.p }

// fresh is the uniform initial state q*0 installed when Restart exits.
func (a *Alg) fresh() State {
	return State{Flag: true, Decision: Undecided, Candidate: true}
}

// Step is the composite round function (Restart wrapper included); it
// matches syncsim.StepFunc.
func (a *Alg) Step(self restart.State[State], sensed []restart.State[State], rng *rand.Rand) restart.State[State] {
	return a.mod.Step(self, sensed, rng)
}

// Fresh returns the wrapped q*0 state.
func (a *Alg) Fresh() restart.State[State] { return a.mod.Fresh() }

// RandomState draws an arbitrary (possibly ill-formed but type-valid) state,
// modeling an adversarial transient fault. With probability 1/4 the state is
// inside Restart.
func (a *Alg) RandomState(rng *rand.Rand) restart.State[State] {
	if rng.Intn(4) == 0 {
		return restart.State[State]{InRestart: true, Pos: rng.Intn(2*a.p.D + 1)}
	}
	dec := []Decision{Undecided, In, Out}[rng.Intn(3)]
	s := State{
		Step:      rng.Intn(a.p.D + 3),
		Flag:      rng.Intn(2) == 0,
		Parity:    rng.Intn(2) == 0,
		Decision:  dec,
		Candidate: rng.Intn(2) == 0,
		Coin:      rng.Intn(2) == 0,
	}
	if dec == In {
		s.TempID = 1 + rng.Intn(a.p.K)
	}
	return restart.State[State]{Alg: s}
}

// step is the wrapped (non-Restart) round function. It returns the next
// state and whether a fault was detected (which makes the wrapper enter
// Restart).
func (a *Alg) step(self State, sensed []State, rng *rand.Rand) (State, bool) {
	d := a.p.D

	// --- Fault detection shared by all modules -------------------------
	// RandPhase validity: step values of neighbors differ by at most one,
	// and trial parities agree (both invariants of fault-free executions).
	for _, u := range sensed {
		if diff := u.Step - self.Step; diff > 1 || diff < -1 {
			return self, true
		}
		if u.Parity != self.Parity {
			return self, true
		}
	}

	// --- DetectMIS (decided nodes only; runs every round) ---------------
	switch self.Decision {
	case In:
		for _, u := range sensed {
			if u.Decision == In && u.TempID != 0 && u.TempID != self.TempID {
				return self, true // two adjacent IN nodes distinguished
			}
		}
	case Out:
		hasIn := false
		for _, u := range sensed {
			if u.Decision == In {
				hasIn = true
				break
			}
		}
		if !hasIn {
			return self, true // uncovered OUT node (deterministic)
		}
	}

	next := self

	// --- RandPhase -------------------------------------------------------
	if self.Flag {
		if rng.Float64() < a.p.P0 {
			next.Flag = false
		}
	}
	stepMin := syncsim.MinSensed(sensed, func(u State) int { return u.Step })
	newPhase := false
	enteredPenultimate := false
	if !next.Flag {
		if stepMin < d+2 {
			next.Step = stepMin + 1
			enteredPenultimate = next.Step == d+1 && self.Step == d
		} else {
			newPhase = true
		}
	}

	// --- Compete -----------------------------------------------------------
	if self.Decision == Undecided {
		if self.Candidate && self.Step <= d {
			if !self.Parity {
				// Toss round.
				next.Coin = rng.Intn(2) == 1
			} else {
				// Indicator round: IC over undecided candidates in N+.
				ic := syncsim.Sensed(sensed, func(u State) bool {
					return u.Decision == Undecided && u.Candidate && u.Coin
				})
				if !self.Coin && ic {
					next.Candidate = false
				}
			}
		}
		next.Parity = !self.Parity

		// Join IN at the round in which step reaches D+1.
		if enteredPenultimate && next.Candidate {
			next.Decision = In
			next.TempID = 1 + rng.Intn(a.p.K)
		}
		// Join OUT in the subsequent round (step D+1 → D+2) upon sensing a
		// neighbor that joined IN.
		if next.Decision == Undecided && self.Step == d+1 && next.Step == d+2 {
			if syncsim.Sensed(sensed, func(u State) bool { return u.Decision == In }) {
				next.Decision = Out
			}
		}
	} else {
		next.Parity = !self.Parity
		if self.Decision == In {
			// Fresh temporary identifier every round.
			next.TempID = 1 + rng.Intn(a.p.K)
		}
	}

	// --- Phase boundary ----------------------------------------------------
	if newPhase {
		next.Step = 0
		next.Flag = true
		next.Parity = false
		next.Coin = false
		if next.Decision == Undecided {
			next.Candidate = true
		}
	}
	return next, false
}

// Output inspects a wrapped state's decision; ok is false for nodes that are
// undecided or inside Restart.
func Output(s restart.State[State]) (inSet bool, ok bool) {
	if s.InRestart || s.Alg.Decision == Undecided {
		return false, false
	}
	return s.Alg.Decision == In, true
}

// Stable reports whether the configuration is a stable MIS output: every
// node decided (and outside Restart) and the IN set is a maximal independent
// set of g.
func Stable(g *graph.Graph, states []restart.State[State]) bool {
	var in []graph.NodeID
	for v, s := range states {
		inSet, ok := Output(s)
		if !ok {
			return false
		}
		if inSet {
			in = append(in, v)
		}
	}
	return g.IsMaximalIndependentSet(in)
}

// LocalStable is the node-local decomposition of Stable: it reports whether
// v is decided and satisfies the MIS condition in its neighborhood — an IN
// node has no decided IN neighbor, an OUT node has at least one. The
// configuration is stable iff LocalStable holds for every node, which is
// what incremental (dirty-set) stability checkers evaluate: a step can only
// flip LocalStable of the changed nodes and their neighbors.
func LocalStable(g *graph.Graph, states []restart.State[State], v graph.NodeID) bool {
	inSet, ok := Output(states[v])
	if !ok {
		return false
	}
	if inSet {
		for _, u := range g.Neighbors(v) {
			if in, ok := Output(states[u]); ok && in {
				return false
			}
		}
		return true
	}
	for _, u := range g.Neighbors(v) {
		if in, ok := Output(states[u]); ok && in {
			return true
		}
	}
	return false
}

// InSet returns the nodes currently marked IN.
func InSet(states []restart.State[State]) []graph.NodeID {
	var in []graph.NodeID
	for v, s := range states {
		if !s.InRestart && s.Alg.Decision == In {
			in = append(in, v)
		}
	}
	return in
}
