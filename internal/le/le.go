// Package le implements AlgLE (Sec. 3.2): a synchronous self-stabilizing
// leader election algorithm for D-bounded-diameter graphs with state space
// O(D) that stabilizes in O(D·log n) rounds in expectation and whp
// (Theorem 1.3).
//
// The execution progresses in epochs. During the computation stage, module
// RandCount implements a probabilistic counter that halts the stage after
// X = Θ(log n) epochs whp, while module Elect eliminates leadership
// candidates by fair coin tossing (surviving candidates are exactly those
// whose coin word is maximal; whp a single candidate survives Θ(log n)
// epochs). During the verification stage, module DetectLE verifies every
// epoch that exactly one leader exists — zero leaders are detected
// deterministically, multiple leaders with probability >= 1 − 1/K — and
// invokes Restart upon detection.
//
// One deliberate implementation deviation from the paper's prose: our epochs
// last D + 1 rounds rather than D, because OR-gossip over a diameter-D graph
// needs D absorption rounds after the initialization round. This changes
// constants only.
package le

import (
	"fmt"
	"math/rand"

	"thinunison/internal/graph"
	"thinunison/internal/restart"
	"thinunison/internal/syncsim"
)

// Stage is the execution stage of AlgLE.
type Stage int

// Stages.
const (
	Compute Stage = iota + 1
	Verify
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case Compute:
		return "compute"
	case Verify:
		return "verify"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// State is the composite per-node state of AlgLE (excluding the Restart
// wrapper). All fields range over constant-size or O(D) domains.
type State struct {
	Stage Stage
	Round int // round within the current epoch: 0 … D (epoch = D+1 rounds)

	// RandCount (compute stage).
	Flag   bool // still tossing the stage-length coin
	OrFlag bool // OR-gossip accumulator for ⋁ u.flag

	// Elect (compute stage).
	Candidate bool
	Coin      bool // this epoch's coin C_v
	OrCoin    bool // OR-gossip accumulator for ⋁ {C_u : u.candidate}

	// Verification stage.
	Leader  bool
	ID      int // leader's temporary identifier 1..K, 0 otherwise
	FirstID int // first identifier encountered this epoch, 0 = none yet
}

// Params configures AlgLE.
type Params struct {
	// D is the diameter bound.
	D int
	// P0 is the RandCount reset probability (0 < P0 < 1). Defaults to 0.3.
	P0 float64
	// K is the temporary-identifier alphabet size for DetectLE (K >= 2).
	// Defaults to 4.
	K int
}

func (p *Params) defaults() error {
	if p.D < 1 {
		return fmt.Errorf("le: diameter bound must be >= 1, got %d", p.D)
	}
	if p.P0 == 0 {
		p.P0 = 0.3
	}
	if p.P0 < 0 || p.P0 >= 1 {
		return fmt.Errorf("le: P0 must be in (0,1), got %v", p.P0)
	}
	if p.K == 0 {
		p.K = 4
	}
	if p.K < 2 {
		return fmt.Errorf("le: K must be >= 2, got %d", p.K)
	}
	return nil
}

// Alg is AlgLE: the module composition wrapped in Restart. Like its
// restart.Module, an Alg serves one engine at a time.
type Alg struct {
	p   Params
	mod *restart.Module[State]
}

// New returns AlgLE for the given parameters.
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

// fresh is the uniform initial state q*0: compute stage, epoch start, all
// nodes candidates.
func (a *Alg) fresh() State {
	return State{Stage: Compute, Flag: true, OrFlag: true, Candidate: true}
}

// Step is the composite round function (Restart wrapper included).
func (a *Alg) Step(self restart.State[State], sensed []restart.State[State], rng *rand.Rand) restart.State[State] {
	return a.mod.Step(self, sensed, rng)
}

// Fresh returns the wrapped q*0 state.
func (a *Alg) Fresh() restart.State[State] { return a.mod.Fresh() }

// RandomState draws an arbitrary type-valid state (adversarial transient
// fault). With probability 1/4 the state is inside Restart.
func (a *Alg) RandomState(rng *rand.Rand) restart.State[State] {
	if rng.Intn(4) == 0 {
		return restart.State[State]{InRestart: true, Pos: rng.Intn(2*a.p.D + 1)}
	}
	st := []Stage{Compute, Verify}[rng.Intn(2)]
	s := State{
		Stage:     st,
		Round:     rng.Intn(a.p.D + 1),
		Flag:      rng.Intn(2) == 0,
		OrFlag:    rng.Intn(2) == 0,
		Candidate: rng.Intn(2) == 0,
		Coin:      rng.Intn(2) == 0,
		OrCoin:    rng.Intn(2) == 0,
	}
	if st == Verify {
		s.Leader = rng.Intn(4) == 0
		if s.Leader {
			s.ID = 1 + rng.Intn(a.p.K)
		}
		if rng.Intn(2) == 0 {
			s.FirstID = 1 + rng.Intn(a.p.K)
		}
	}
	return restart.State[State]{Alg: s}
}

// epochLen returns the epoch length in rounds (D + 1; see package comment).
func (a *Alg) epochLen() int { return a.p.D + 1 }

// step is the wrapped round function; detect = true invokes Restart.
func (a *Alg) step(self State, sensed []State, rng *rand.Rand) (State, bool) {
	// Lockstep validity: in a fault-free execution all nodes share the same
	// stage and epoch round; any disagreement is an inconsistency.
	for _, u := range sensed {
		if u.Round != self.Round || u.Stage != self.Stage {
			return self, true
		}
	}

	next := self
	lastRound := self.Round == a.epochLen()-1

	switch self.Stage {
	case Compute:
		if self.Round == 0 {
			// Epoch start: RandCount coin and Elect coin.
			if self.Flag && rng.Float64() < a.p.P0 {
				next.Flag = false
			}
			next.OrFlag = next.Flag
			if self.Candidate {
				next.Coin = rng.Intn(2) == 1
			}
			next.OrCoin = self.Candidate && next.Coin
		} else {
			// Gossip rounds: absorb neighbors' accumulators.
			next.OrFlag = self.OrFlag || syncsim.Sensed(sensed, func(u State) bool { return u.OrFlag })
			next.OrCoin = self.OrCoin || syncsim.Sensed(sensed, func(u State) bool { return u.OrCoin })
		}

		if lastRound {
			// Epoch end: evaluate the indicators.
			if !next.OrFlag {
				// I_flag = 0: the computation stage halts; candidates
				// become leaders and verification begins.
				next.Stage = Verify
				next.Leader = self.Candidate
				next.Round = 0
				next.ID = 0
				next.FirstID = 0
				return next, false
			}
			if self.Candidate && !self.Coin && next.OrCoin {
				next.Candidate = false
			}
			next.Round = 0
			return next, false
		}
		next.Round = self.Round + 1
		return next, false

	case Verify:
		if self.Round == 0 {
			// Epoch start: the leader draws a fresh temporary identifier.
			if self.Leader {
				next.ID = 1 + rng.Intn(a.p.K)
				next.FirstID = next.ID
			} else {
				next.ID = 0
				next.FirstID = 0
			}
		} else {
			// Encounter identifiers: a leader's ID or a relayed FirstID.
			for _, u := range sensed {
				for _, id := range [2]int{u.ID, u.FirstID} {
					if id == 0 {
						continue
					}
					if next.FirstID == 0 {
						next.FirstID = id
					} else if next.FirstID != id {
						return self, true // two distinct identifiers: >= 2 leaders
					}
				}
			}
		}

		if lastRound {
			if next.FirstID == 0 {
				return self, true // no identifier encountered: zero leaders
			}
			next.Round = 0
			return next, false
		}
		next.Round = self.Round + 1
		return next, false

	default:
		// Unknown stage value (possible only under adversarial
		// initialization): treat as an inconsistency.
		return self, true
	}
}

// Leaders returns the nodes currently marked as leaders.
func Leaders(states []restart.State[State]) []graph.NodeID {
	var out []graph.NodeID
	for v, s := range states {
		if !s.InRestart && s.Alg.Stage == Verify && s.Alg.Leader {
			out = append(out, v)
		}
	}
	return out
}

// Stable reports whether the configuration is a stable LE output: every
// node outside Restart, in the verification stage, and exactly one leader.
func Stable(states []restart.State[State]) bool {
	leaders := 0
	for _, s := range states {
		if s.InRestart || s.Alg.Stage != Verify {
			return false
		}
		if s.Alg.Leader {
			leaders++
		}
	}
	return leaders == 1
}

// LocalStable is the node-local decomposition of Stable: ok reports whether
// the node is outside Restart and in the verification stage, and leader
// whether it currently counts as a leader. The configuration is stable iff
// ok holds for every node and the leader count is exactly one — the form
// incremental (dirty-set) stability checkers evaluate with an O(1) global
// check.
func LocalStable(s restart.State[State]) (ok, leader bool) {
	ok = !s.InRestart && s.Alg.Stage == Verify
	return ok, ok && s.Alg.Leader
}
