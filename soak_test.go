package thinunison_test

// Soak tests: larger instances than the unit suites, gated behind -short.
// They pin the "independent of n" headline at scale: the same 12D+6 states
// drive populations an order of magnitude larger.

import (
	"math/rand"
	"testing"

	"thinunison"
	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/sched"
	"thinunison/internal/sim"
)

func TestSoakAU200Nodes(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped with -short")
	}
	rng := rand.New(rand.NewSource(1))
	const d = 4
	g, err := graph.BoundedDiameter(200, d, rng)
	if err != nil {
		t.Fatal(err)
	}
	au, err := core.NewAU(d)
	if err != nil {
		t.Fatal(err)
	}
	if au.NumStates() != 12*d+6 {
		t.Fatalf("state space grew with n?! %d", au.NumStates())
	}
	k := au.K()
	for _, s := range []sched.Scheduler{
		sched.NewSynchronous(),
		sched.NewRandomSubsetSeeded(0.3, 32, 2),
	} {
		eng, err := sim.New(g, au, sim.Options{Scheduler: s, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		rounds, err := eng.RunUntil(func(e *sim.Engine) bool {
			return au.GraphGood(g, e.Config())
		}, 60*k*k*k+500)
		if err != nil {
			t.Fatalf("%s: 200-node instance did not stabilize: %v", s.Name(), err)
		}
		t.Logf("%s: 200 nodes, D=%d, %d states: stabilized in %d rounds",
			s.Name(), d, au.NumStates(), rounds)
	}
}

func TestSoakMIS128Nodes(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped with -short")
	}
	rng := rand.New(rand.NewSource(3))
	g, err := graph.BoundedDiameter(128, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := thinunison.SolveMIS(g, thinunison.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsMaximalIndependentSet(res.InSet) {
		t.Fatal("128-node output is not an MIS")
	}
	t.Logf("MIS over 128 nodes in %d rounds (|IN| = %d)", res.Rounds, len(res.InSet))
}

func TestSoakLE128Nodes(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped with -short")
	}
	rng := rand.New(rand.NewSource(4))
	g, err := graph.BoundedDiameter(128, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := thinunison.SolveLeaderElection(g, thinunison.WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("leader %d over 128 nodes in %d rounds", res.Leader, res.Rounds)
}

// TestSoakRepeatedFaultBursts hammers a single Unison instance with many
// fault bursts back to back.
func TestSoakRepeatedFaultBursts(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped with -short")
	}
	g, err := thinunison.RandomConnected(64, 0.12, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	u, err := thinunison.NewUnison(g, thinunison.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.RunUntilStabilized(u.StabilizationBudget()); err != nil {
		t.Fatal(err)
	}
	for burst := 0; burst < 25; burst++ {
		u.InjectFaults(1 + burst%32)
		if _, err := u.RunUntilStabilized(u.StabilizationBudget()); err != nil {
			t.Fatalf("burst %d: no recovery: %v", burst, err)
		}
	}
}
