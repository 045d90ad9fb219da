package mc_test

import (
	"testing"

	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/mc"
	"thinunison/internal/naive"
	"thinunison/internal/sa"
)

// TestAlgAUNoFairDivergence is the strongest correctness evidence in the
// repository: on small instances it PROVES Theorem 1.1 exhaustively — there
// is NO fair schedule, from ANY initial configuration, under which AlgAU
// avoids the good set forever. (Simulation can only sample schedules; the
// model checker covers all of them.)
func TestAlgAUNoFairDivergence(t *testing.T) {
	instances := []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"P2", func() (*graph.Graph, error) { return graph.Path(2) }},
		{"C3", func() (*graph.Graph, error) { return graph.Cycle(3) }},
		{"P3", func() (*graph.Graph, error) { return graph.Path(3) }},
	}
	for _, inst := range instances {
		t.Run(inst.name, func(t *testing.T) {
			g, err := inst.build()
			if err != nil {
				t.Fatal(err)
			}
			au, err := core.NewAU(g.Diameter())
			if err != nil {
				t.Fatal(err)
			}
			sys, err := mc.Build(g, au)
			if err != nil {
				t.Fatal(err)
			}
			good := func(cfg sa.Config) bool { return au.GraphGood(g, cfg) }
			if witness, exists := sys.FairDivergence(good); exists {
				t.Fatalf("fair divergence exists: %d-configuration witness SCC, e.g. %v",
					len(witness), sys.Config(witness[0]).String(au))
			}
			t.Logf("verified: no fair schedule avoids the good set over all %d configurations", sys.Size())
		})
	}
}

// TestAlgAUGoodClosureAllMoves machine-checks Lemma 2.10 against EVERY
// adversarial move (all 2^n−1 activation subsets), not just the synchronous
// one.
func TestAlgAUGoodClosureAllMoves(t *testing.T) {
	g, err := graph.Cycle(3)
	if err != nil {
		t.Fatal(err)
	}
	au, err := core.NewAU(g.Diameter())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := mc.Build(g, au)
	if err != nil {
		t.Fatal(err)
	}
	good := func(cfg sa.Config) bool { return au.GraphGood(g, cfg) }
	if ok, cfg, mask := sys.CheckClosure(good); !ok {
		t.Fatalf("good is not closed: config %v, activation mask %b", cfg.String(au), mask)
	}
}

// TestAlgAUOutProtectedClosureAllMoves machine-checks Obs. 2.3's graph-level
// consequence: "every node out-protected" is closed under every move.
func TestAlgAUOutProtectedClosureAllMoves(t *testing.T) {
	g, err := graph.Path(3)
	if err != nil {
		t.Fatal(err)
	}
	au, err := core.NewAU(g.Diameter())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := mc.Build(g, au)
	if err != nil {
		t.Fatal(err)
	}
	op := func(cfg sa.Config) bool { return au.GraphOutProtected(g, cfg) }
	if ok, cfg, mask := sys.CheckClosure(op); !ok {
		t.Fatalf("out-protected is not closed: config %v, mask %b", cfg.String(au), mask)
	}
}

// TestNaiveFairDivergenceExists proves the Appendix A algorithm admits a
// fair non-stabilizing execution on the Figure 2 instance: in the subspace
// reachable from the Figure 2(a) configuration there is an SCC of
// illegitimate configurations whose internal moves activate every node.
func TestNaiveFairDivergenceExists(t *testing.T) {
	li, err := naive.NewLiveLockInstance()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := mc.BuildReachable(li.Graph, li.Alg, []sa.Config{li.Initial}, 2_000_000)
	if err != nil {
		t.Fatalf("reachable construction: %v", err)
	}
	edges := li.Graph.Edges()
	legit := func(cfg sa.Config) bool { return li.Alg.Legitimate(cfg, edges) }
	witness, exists := sys.FairDivergence(legit)
	if !exists {
		t.Fatalf("no fair divergence found over %d reachable configurations — the live-lock should exist", sys.Size())
	}
	t.Logf("live-lock proved: %d-configuration fair SCC avoiding legitimacy (reachable space: %d configs)",
		len(witness), sys.Size())
}

// TestBuildValidation covers the error paths.
func TestBuildValidation(t *testing.T) {
	g, err := graph.Path(2)
	if err != nil {
		t.Fatal(err)
	}
	au, err := core.NewAU(5) // 66 states on 2 nodes: 4356 configs, fine
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Build(g, au); err != nil {
		t.Errorf("Build within cap failed: %v", err)
	}
	big, err := graph.Path(6)
	if err != nil {
		t.Fatal(err)
	}
	auBig, err := core.NewAU(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Build(big, auBig); err == nil {
		t.Error("66^6 configurations should exceed the exhaustive cap")
	}
	if _, err := mc.BuildReachable(g, au, []sa.Config{{0}}, 0); err == nil {
		t.Error("wrong-length root should fail")
	}
	// Tiny reachable cap must trip.
	if _, err := mc.BuildReachable(g, au, []sa.Config{{0, 0}}, 1); err == nil {
		t.Error("cap of 1 should be exceeded")
	}
	// A configuration key holds two bytes per state.
	if _, err := mc.BuildReachable(g, wideAlg{}, nil, 0); err == nil {
		t.Error("an algorithm with more than 2^16 states should be refused")
	}
}

// wideAlg has more states than a configuration key can hold; the checker
// must refuse it before calling anything but NumStates.
type wideAlg struct{ sa.Algorithm }

func (wideAlg) NumStates() int { return 1<<16 + 1 }

// TestReachableMatchesSimulation: the reachable system's successor function
// agrees with a direct transition computation.
func TestReachableMatchesSimulation(t *testing.T) {
	g, err := graph.Cycle(3)
	if err != nil {
		t.Fatal(err)
	}
	au, err := core.NewAU(1)
	if err != nil {
		t.Fatal(err)
	}
	root := sa.Config{0, 5, 9}
	sys, err := mc.BuildReachable(g, au, []sa.Config{root}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Size() < 2 {
		t.Fatalf("suspiciously small reachable set: %d", sys.Size())
	}
	// The synchronous successor of the root (mask all-ones) must be in the
	// system and equal the direct computation.
	sig := sa.NewSignal(au.NumStates())
	want := root.Clone()
	for v := 0; v < g.N(); v++ {
		sig.Reset()
		sig.Set(root[v])
		for _, u := range g.Neighbors(v) {
			sig.Set(root[u])
		}
		want[v] = au.Transition(root[v], sig, nil)
	}
	found := false
	for i := 0; i < sys.Size(); i++ {
		if sys.Config(i).Equal(want) {
			found = true
			break
		}
	}
	if !found {
		t.Error("synchronous successor of the root missing from the reachable system")
	}
}
