package le_test

import (
	"math/rand"
	"testing"

	"thinunison/internal/asyncsim"
	"thinunison/internal/graph"
	"thinunison/internal/le"
	"thinunison/internal/restart"
)

// TestAtLeastOneCandidateSurvives pins the Elect module's key invariant
// (Sec. 3.2.1): during the computation stage at least one node always has
// candidate = 1 — a candidate with C_v = 1 never drops out, so the winner
// set cannot empty. Restarts (the two-leader whp failure path) reset the
// stage and are tolerated.
func TestAtLeastOneCandidateSurvives(t *testing.T) {
	g, err := graph.RandomConnected(8, 0.3, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	d := g.Diameter()
	a := mustAlg(t, d)
	eng, err := asyncsim.New(g, a.Step, freshStates(a, g.N()), nil, 31)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 1500; round++ {
		eng.Step()
		candidates, inCompute, inRestart := 0, 0, 0
		for v := 0; v < g.N(); v++ {
			s := eng.State(v)
			if s.InRestart {
				inRestart++
				continue
			}
			if s.Alg.Stage == le.Compute {
				inCompute++
				if s.Alg.Candidate {
					candidates++
				}
			}
		}
		// Restarts can occur legitimately (two-leader whp failure caught by
		// DetectLE); the invariant applies to fully-in-compute rounds.
		if inRestart == 0 && inCompute == g.N() && candidates == 0 {
			t.Fatalf("round %d: all candidates eliminated during the computation stage", round)
		}
	}
}

// TestLockstepEpochs: all nodes share the same (stage, round) pair at every
// time of a fault-free execution — the lockstep invariant that DetectLE's
// consistency check relies on.
func TestLockstepEpochs(t *testing.T) {
	g, err := graph.Star(7)
	if err != nil {
		t.Fatal(err)
	}
	a := mustAlg(t, g.Diameter())
	eng, err := asyncsim.New(g, a.Step, freshStates(a, g.N()), nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 1000; round++ {
		eng.Step()
		// Skip rounds touched by a Restart (entry floods over several
		// rounds by design; lockstep applies to normal operation).
		anyRestart := false
		for v := 0; v < g.N(); v++ {
			if eng.State(v).InRestart {
				anyRestart = true
				break
			}
		}
		if anyRestart {
			continue
		}
		first := eng.State(0)
		for v := 1; v < g.N(); v++ {
			s := eng.State(v)
			if s.Alg.Stage != first.Alg.Stage || s.Alg.Round != first.Alg.Round {
				t.Fatalf("round %d: node %d at %v, node 0 at %v — lockstep broken", round, v, s, first)
			}
		}
	}
}

// TestLeaderIsUniformishOverSeeds: on the complete graph the elected leader
// varies across seeds (anonymous symmetry breaking); loose bound to stay
// flake-free.
func TestLeaderIsUniformishOverSeeds(t *testing.T) {
	g, err := graph.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	a := mustAlg(t, 1)
	winners := map[int]int{}
	const seeds = 50
	for seed := int64(0); seed < seeds; seed++ {
		eng, err := asyncsim.New(g, a.Step, freshStates(a, g.N()), nil, seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := eng.RunUntil(func(e *asyncsim.Engine[restart.State[le.State]]) bool {
			return le.Stable(e.States())
		}, budget(g, 1)); !ok {
			t.Fatalf("seed %d: no stable leader", seed)
		}
		winners[le.Leaders(eng.States())[0]]++
	}
	if len(winners) < 3 {
		t.Errorf("only %d distinct leaders over %d seeds: %v", len(winners), seeds, winners)
	}
	t.Logf("leader distribution: %v", winners)
}

// TestVerificationKeepsAuditing: after stabilization the verification stage
// keeps running epochs indefinitely (Round keeps cycling) rather than
// freezing.
func TestVerificationKeepsAuditing(t *testing.T) {
	g, err := graph.Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	d := g.Diameter()
	a := mustAlg(t, d)
	eng, err := asyncsim.New(g, a.Step, freshStates(a, g.N()), nil, 77)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.RunUntil(func(e *asyncsim.Engine[restart.State[le.State]]) bool {
		return le.Stable(e.States())
	}, budget(g, d)); !ok {
		t.Fatal("no stable leader")
	}
	seenRounds := map[int]bool{}
	for i := 0; i < 5*(d+1); i++ {
		eng.Step()
		s := eng.State(0)
		if s.InRestart || s.Alg.Stage != le.Verify {
			t.Fatal("left the verification stage after stabilization")
		}
		seenRounds[s.Alg.Round] = true
	}
	if len(seenRounds) != d+1 {
		t.Errorf("verification epochs cycle over %d rounds, want %d", len(seenRounds), d+1)
	}
}
