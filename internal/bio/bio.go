// Package bio provides the biological cellular-network substrate motivating
// the paper's title: a population of anonymous cells communicating by
// broadcast sensing (quorum-sensing style), subject to transient faults
// (environmental state corruption) and link churn that keeps the diameter
// within a fixed bound.
//
// The paper evaluates no wet-lab system; this substrate is the synthetic
// equivalent that exercises exactly the code paths the paper's fault
// tolerance story is about: arbitrary corruption of cell states at arbitrary
// times (self-stabilization recovers), and topology perturbations within the
// D-bounded-diameter family (the graph class the algorithms are designed
// for).
package bio

import (
	"fmt"
	"math/rand"

	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/sched"
	"thinunison/internal/sim"
)

// Network is a cellular network running AlgAU as its pulse clock.
type Network struct {
	g   *graph.Graph
	au  *core.AU
	eng *sim.Engine
	rng *rand.Rand

	faultsInjected int
	recoveries     []int
}

// Config configures a cellular network.
type Config struct {
	// Cells is the population size (must be >= 2).
	Cells int
	// DiameterBound is the D the network is engineered to stay within.
	// Zero means the built topology's own diameter.
	DiameterBound int
	// EdgeDensity is the extra-chord probability of the random connected
	// topology (default 0.2).
	EdgeDensity float64
	// Scheduler drives cell activations; nil means random-subset (cells
	// wake up asynchronously).
	Scheduler sched.Scheduler
	// Seed seeds all randomness.
	Seed int64
}

// NewNetwork builds a network with a random connected topology and AlgAU as
// the pulse clock, starting from an arbitrary (random) configuration — cells
// have no initialization coordination, which is the biological premise.
func NewNetwork(cfg Config) (*Network, error) {
	if cfg.Cells < 2 {
		return nil, fmt.Errorf("bio: need at least 2 cells, got %d", cfg.Cells)
	}
	if cfg.EdgeDensity == 0 {
		cfg.EdgeDensity = 0.2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g, err := graph.RandomConnected(cfg.Cells, cfg.EdgeDensity, rng)
	if err != nil {
		return nil, err
	}
	d := cfg.DiameterBound
	if d == 0 {
		d = g.Diameter()
	}
	if got := g.Diameter(); got > d {
		return nil, fmt.Errorf("bio: topology diameter %d exceeds bound %d", got, d)
	}
	au, err := core.NewAU(maxInt(1, d))
	if err != nil {
		return nil, err
	}
	s := cfg.Scheduler
	if s == nil {
		s = sched.NewRandomSubsetSeeded(0.5, 16, cfg.Seed+1)
	}
	eng, err := sim.New(g, au, sim.Options{Scheduler: s, Seed: cfg.Seed + 2})
	if err != nil {
		return nil, err
	}
	return &Network{g: g, au: au, eng: eng, rng: rng}, nil
}

// Graph returns the topology.
func (n *Network) Graph() *graph.Graph { return n.g }

// AU returns the pulse-clock algorithm.
func (n *Network) AU() *core.AU { return n.au }

// Engine exposes the underlying engine (for custom drivers).
func (n *Network) Engine() *sim.Engine { return n.eng }

// Synchronized reports whether the population's pulse clock has stabilized
// (the graph is good: safety holds and every cell pulses forever after).
func (n *Network) Synchronized() bool {
	return n.au.GraphGood(n.g, n.eng.Config())
}

// RunUntilSynchronized runs until the pulse clock stabilizes, returning the
// number of rounds taken.
func (n *Network) RunUntilSynchronized(maxRounds int) (int, error) {
	return n.eng.RunUntil(func(e *sim.Engine) bool {
		return n.au.GraphGood(n.g, e.Config())
	}, maxRounds)
}

// InjectTransientFaults corrupts the given number of random cells to random
// states (an environmental shock), returning the affected cells.
func (n *Network) InjectTransientFaults(cells int) []int {
	n.faultsInjected += cells
	return n.eng.InjectFaults(cells)
}

// Recoveries returns the recovery times (in rounds) recorded by
// MeasureRecovery calls.
func (n *Network) Recoveries() []int {
	out := make([]int, len(n.recoveries))
	copy(out, n.recoveries)
	return out
}

// MeasureRecovery injects a fault burst and measures re-stabilization time
// in rounds, recording it.
func (n *Network) MeasureRecovery(cells, maxRounds int) (int, error) {
	n.InjectTransientFaults(cells)
	rounds, err := n.RunUntilSynchronized(maxRounds)
	if err != nil {
		return rounds, err
	}
	n.recoveries = append(n.recoveries, rounds)
	return rounds, nil
}

// PulseCounts runs the synchronized network for the given number of rounds
// and returns how many pulses (clock advances) each cell performed — the
// liveness payoff: every cell keeps pulsing, in lockstep ±1.
func (n *Network) PulseCounts(rounds int) ([]int, error) {
	if !n.Synchronized() {
		return nil, fmt.Errorf("bio: network not synchronized")
	}
	counts := make([]int, n.g.N())
	prev := n.eng.Config().Clone()
	target := n.eng.Rounds() + rounds
	for n.eng.Rounds() < target {
		if err := n.eng.Step(); err != nil {
			return nil, err
		}
		cur := n.eng.Config()
		for v := range counts {
			if cur[v] != prev[v] {
				counts[v]++
			}
		}
		copy(prev, cur)
	}
	return counts, nil
}

// Churn rewires the topology in place: it removes and adds random chords
// while keeping the graph connected and within the diameter bound. The cell
// states, the engine, the scheduler and the rng stream all carry over —
// topology change is a transient disruption the clock recovers from, not a
// restart. Each attempt stages its rewiring in a graph.Delta, commits it
// through the engine's churn path (sim.Engine.ApplyDelta, which repairs the
// frontier and observers in the same motion), checks
// the exact diameter, and backs an inadmissible attempt out with the
// inverse batch. If no admissible rewiring is found in a bounded number of
// attempts, the topology is left unchanged (ok=false).
func (n *Network) Churn(rewires int) (ok bool, err error) {
	d := n.au.D()
	for attempt := 0; attempt < 32; attempt++ {
		delta := graph.NewDelta(n.g)
		edges := n.g.Edges()
		// Drop up to `rewires` random edges.
		drop := map[int]bool{}
		for i := 0; i < rewires && i < len(edges); i++ {
			drop[n.rng.Intn(len(edges))] = true
		}
		for i := range drop {
			if err := delta.DeleteEdge(edges[i][0], edges[i][1]); err != nil {
				return false, err
			}
		}
		// Add the same number of random chords.
		for i := 0; i < len(drop); i++ {
			u, v := n.rng.Intn(n.g.N()), n.rng.Intn(n.g.N())
			if u != v {
				if err := delta.InsertEdge(u, v); err != nil {
					return false, err
				}
			}
		}
		// Cheap pre-check on the merged view, then commit and verify the
		// exact diameter (the bound is a hard contract of the substrate).
		if !delta.Connected() {
			continue
		}
		changes, err := n.eng.ApplyDelta(delta)
		if err != nil {
			return false, err
		}
		if len(changes) == 0 {
			continue // rewiring cancelled itself (chords equal to drops)
		}
		if n.g.Diameter() <= d {
			return true, nil
		}
		// Back out: apply the inverse batch through the same path.
		inverse := graph.NewDelta(n.g)
		for _, c := range changes {
			if c.Added {
				err = inverse.DeleteEdge(c.U, c.V)
			} else {
				err = inverse.InsertEdge(c.U, c.V)
			}
			if err != nil {
				return false, err
			}
		}
		if _, err := n.eng.ApplyDelta(inverse); err != nil {
			return false, err
		}
	}
	return false, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
