package mis_test

import (
	"testing"

	"thinunison/internal/asyncsim"
	"thinunison/internal/graph"
	"thinunison/internal/mis"
	"thinunison/internal/restart"
)

// TestPhaseBoundariesConcurrent pins Corollary 3.6 and Obs. 3.3/3.4: in an
// execution from the uniform start, RandPhase's step values never differ by
// more than one across any EDGE (edge validity — global spread may reach
// the distance bound), and phase resets (step returning to 0) happen at
// exactly the same round for every node. Restarts may legitimately occur
// (the "whp" failure path: a coin tie elects two adjacent IN nodes and
// DetectMIS catches it); the invariants are checked between restarts.
func TestPhaseBoundariesConcurrent(t *testing.T) {
	g, err := graph.RandomConnected(9, 0.3, newRng(41))
	if err != nil {
		t.Fatal(err)
	}
	d := g.Diameter()
	a := mustAlg(t, d)
	eng, err := asyncsim.New(g, a.Step, freshStates(a, g.N()), nil, 13)
	if err != nil {
		t.Fatal(err)
	}
	prevSteps := make([]int, g.N())
	resets := 0
	for round := 0; round < 600; round++ {
		eng.Step()
		states := eng.States()
		inRestart := false
		for _, s := range states {
			if s.InRestart {
				inRestart = true
				break
			}
		}
		if inRestart {
			// Legitimate whp-failure recovery; invariants resume after.
			for v := range prevSteps {
				prevSteps[v] = -1
			}
			continue
		}
		resetCount := 0
		for v, s := range states {
			st := s.Alg.Step
			if prevSteps[v] == d+2 && st == 0 {
				resetCount++
			}
			prevSteps[v] = st
		}
		// Edge validity (Obs. 3.3/3.4): adjacent step values differ by <= 1.
		for _, e := range g.Edges() {
			a, b := states[e[0]].Alg.Step, states[e[1]].Alg.Step
			if diff := a - b; diff > 1 || diff < -1 {
				t.Fatalf("round %d: edge %v has steps %d, %d — invalid", round, e, a, b)
			}
		}
		if resetCount != 0 && resetCount != g.N() {
			t.Fatalf("round %d: %d/%d nodes reset the phase — not concurrent", round, resetCount, g.N())
		}
		if resetCount == g.N() {
			resets++
		}
	}
	if resets == 0 {
		t.Fatal("no phase boundary observed in 600 rounds")
	}
	t.Logf("%d concurrent phase boundaries in 600 rounds", resets)
}

// TestCompetitionFairness: on the complete graph, which node wins IN is
// (roughly) uniform over seeds — symmetry is broken only by coins, so no
// node can be structurally favored. We assert only that at least half the
// nodes win at least once over many seeds (a loose, flake-free bound).
func TestCompetitionFairness(t *testing.T) {
	g, err := graph.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	a := mustAlg(t, 1)
	winners := map[int]int{}
	const seeds = 60
	for seed := int64(0); seed < seeds; seed++ {
		eng, err := asyncsim.New(g, a.Step, freshStates(a, g.N()), nil, seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := eng.RunUntil(func(e *asyncsim.Engine[restart.State[mis.State]]) bool {
			return mis.Stable(g, e.States())
		}, budget(g, 1)); !ok {
			t.Fatalf("seed %d: no stable MIS", seed)
		}
		in := mis.InSet(eng.States())
		if len(in) != 1 {
			t.Fatalf("seed %d: MIS of K5 must be a single node, got %v", seed, in)
		}
		winners[in[0]]++
	}
	if len(winners) < 3 {
		t.Errorf("only %d distinct winners over %d seeds: %v — symmetry breaking looks biased", len(winners), seeds, winners)
	}
	t.Logf("winner distribution over %d seeds: %v", seeds, winners)
}

// TestDecidedSetMonotoneWithinRun: between Restarts, nodes never go back
// from decided to undecided (decisions are final until a Restart wipes
// them).
func TestDecidedSetMonotoneWithinRun(t *testing.T) {
	g, err := graph.Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := mustAlg(t, g.Diameter())
	eng, err := asyncsim.New(g, a.Step, freshStates(a, g.N()), nil, 99)
	if err != nil {
		t.Fatal(err)
	}
	decided := make([]bool, g.N())
	for round := 0; round < 800; round++ {
		eng.Step()
		anyRestart := false
		for v := 0; v < g.N(); v++ {
			if eng.State(v).InRestart {
				anyRestart = true
				break
			}
		}
		if anyRestart {
			// A Restart wipes decisions by design; reset the tracker.
			for v := range decided {
				decided[v] = false
			}
			continue
		}
		for v := 0; v < g.N(); v++ {
			s := eng.State(v)
			isDecided := s.Alg.Decision != mis.Undecided
			if decided[v] && !isDecided {
				t.Fatalf("round %d: node %d reverted to undecided without a Restart", round, v)
			}
			decided[v] = isDecided
		}
	}
}
