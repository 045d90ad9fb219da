package sim

import (
	"testing"

	"thinunison/internal/core"
	"thinunison/internal/graph"
)

// TestChurnGuards pins the admissibility guards of churn staging: with
// KeepConnected on a star every edge is a bridge and a crash of the hub
// isolates every leaf, so stageDelete and stageCrash must cancel both; and
// a small MaxDiameterUpper cancels a deletion that stretches a cycle into a
// path. The engine then steps, committing whatever was staged.
func TestChurnGuards(t *testing.T) {
	au, err := core.NewAU(4)
	if err != nil {
		t.Fatal(err)
	}
	// churnEngine builds an engine with a churn runtime whose stochastic
	// stream stays silent for the test: its first event is due at 2^30.
	churnEngine := func(t *testing.T, g *graph.Graph, spec ChurnSpec) *Engine {
		t.Helper()
		spec.Period, spec.Crashes = 1<<30, 1
		e, err := New(g, au, Options{Seed: 1, Churn: &spec})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	t.Run("keep-connected", func(t *testing.T) {
		g, err := graph.Star(8)
		if err != nil {
			t.Fatal(err)
		}
		e := churnEngine(t, g, ChurnSpec{KeepConnected: true})
		e.churn.stageDelete(0, 3)
		e.churn.stageCrash(0)
		for i := 0; i < 3; i++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if g.M() != 7 || e.ChurnOps() != 0 {
			t.Fatalf("guarded ops committed: m=%d, ops=%d", g.M(), e.ChurnOps())
		}
		if e.ChurnSkipped() != 2 {
			t.Fatalf("ChurnSkipped = %d, want 2", e.ChurnSkipped())
		}
	})
	t.Run("max-diameter", func(t *testing.T) {
		g, err := graph.Cycle(12)
		if err != nil {
			t.Fatal(err)
		}
		// The 12-node path left by a deletion has diameter 11.
		e := churnEngine(t, g, ChurnSpec{KeepConnected: true, MaxDiameterUpper: 6})
		e.churn.stageDelete(0, 1)
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if g.M() != 12 || e.ChurnSkipped() != 1 {
			t.Fatalf("diameter guard failed: m=%d, skipped=%d", g.M(), e.ChurnSkipped())
		}
	})
}
