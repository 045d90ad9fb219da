package thinunison_test

import (
	"testing"

	"thinunison/internal/budget"
	"thinunison/internal/core"
	"thinunison/internal/failpoint"
	"thinunison/internal/graph"
	"thinunison/internal/sim"
)

// TestSteadyStepDisarmedFailpointsZeroAlloc pins the cost of compiling the
// failpoint sites into the engine hot path: with no schedule armed, the
// per-step overhead is a single atomic pointer load and the steady step must
// stay at exactly 0 allocs/op (the same invariant BenchmarkHotPathSteadyStep
// reports and cmd/hotpathbench -obs-gate enforces on the committed artifact).
func TestSteadyStepDisarmedFailpointsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; the pin measures the non-race build")
	}
	if failpoint.Armed() {
		t.Fatal("a failpoint schedule is armed; the pin needs the disarmed path")
	}
	g, err := graph.Cycle(256)
	if err != nil {
		t.Fatal(err)
	}
	au, err := core.NewAU(g.Diameter())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.New(g, au, sim.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	good := func(e *sim.Engine) bool { return au.GraphGood(g, e.Config()) }
	if _, err := eng.RunUntil(good, budget.AU(au.K())); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2000, func() {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady step with disarmed failpoints: %v allocs/op, want 0", allocs)
	}
}
