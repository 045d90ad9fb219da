package thinunison_test

import (
	"math/rand"
	"testing"

	"thinunison"
)

func TestUnisonFacade(t *testing.T) {
	g, err := thinunison.Cycle(8)
	if err != nil {
		t.Fatal(err)
	}
	u, err := thinunison.NewUnison(g, thinunison.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if u.D() != g.Diameter() {
		t.Errorf("D = %d, want graph diameter %d", u.D(), g.Diameter())
	}
	if u.States() != 12*u.D()+6 {
		t.Errorf("States = %d, want 12D+6", u.States())
	}
	if u.ClockOrder() != 2*(3*u.D()+2) {
		t.Errorf("ClockOrder = %d", u.ClockOrder())
	}
	rounds, err := u.RunUntilStabilized(u.StabilizationBudget())
	if err != nil {
		t.Fatalf("stabilization: %v", err)
	}
	if !u.Stabilized() {
		t.Fatal("Stabilized inconsistent")
	}
	t.Logf("stabilized after %d rounds", rounds)

	for _, c := range u.Clocks() {
		if c < 0 || c >= u.ClockOrder() {
			t.Errorf("clock %d out of range", c)
		}
	}
	// Faults and recovery.
	hit := u.InjectFaults(4)
	if len(hit) != 4 {
		t.Errorf("InjectFaults hit %d", len(hit))
	}
	if _, err := u.RunUntilStabilized(u.StabilizationBudget()); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if err := u.RunRounds(5); err != nil {
		t.Fatal(err)
	}
	if u.Rounds() == 0 {
		t.Error("Rounds should be positive")
	}
}

func TestUnisonWithAsyncScheduler(t *testing.T) {
	g, err := thinunison.RandomConnected(10, 0.3, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	u, err := thinunison.NewUnison(g,
		thinunison.WithScheduler(thinunison.RoundRobin()),
		thinunison.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.RunUntilStabilized(u.StabilizationBudget()); err != nil {
		t.Fatal(err)
	}
}

func TestDiameterBoundValidation(t *testing.T) {
	g, err := thinunison.Path(6) // diameter 5
	if err != nil {
		t.Fatal(err)
	}
	if _, err := thinunison.NewUnison(g, thinunison.WithDiameterBound(2)); err == nil {
		t.Error("diameter exceeding the bound should fail")
	}
	// A larger bound is fine (the class is D-bounded-diameter).
	u, err := thinunison.NewUnison(g, thinunison.WithDiameterBound(8))
	if err != nil {
		t.Fatal(err)
	}
	if u.D() != 8 {
		t.Errorf("D = %d, want 8", u.D())
	}
}

func TestSolveMISSync(t *testing.T) {
	g, err := thinunison.Grid(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := thinunison.SolveMIS(g, thinunison.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsMaximalIndependentSet(res.InSet) {
		t.Errorf("output %v is not an MIS", res.InSet)
	}
	t.Logf("MIS %v in %d rounds", res.InSet, res.Rounds)
}

func TestSolveMISAsync(t *testing.T) {
	g, err := thinunison.Star(7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := thinunison.SolveMIS(g,
		thinunison.WithSeed(6),
		thinunison.WithScheduler(thinunison.RoundRobin()))
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsMaximalIndependentSet(res.InSet) {
		t.Errorf("output %v is not an MIS", res.InSet)
	}
}

func TestSolveLeaderElectionSync(t *testing.T) {
	g, err := thinunison.Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := thinunison.SolveLeaderElection(g, thinunison.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Leader < 0 || res.Leader >= g.N() {
		t.Errorf("leader %d out of range", res.Leader)
	}
	t.Logf("leader %d in %d rounds", res.Leader, res.Rounds)
}

func TestSolveLeaderElectionAsync(t *testing.T) {
	g, err := thinunison.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := thinunison.SolveLeaderElection(g,
		thinunison.WithSeed(8),
		thinunison.WithScheduler(thinunison.RandomSubset(0.5, 8, 9)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Leader < 0 || res.Leader >= g.N() {
		t.Errorf("leader %d out of range", res.Leader)
	}
}

// TestNewSynchronized runs a user-provided synchronous OR-gossip program
// under an asynchronous scheduler via the public synchronizer API and checks
// that the simulated rounds eventually spread the bit everywhere.
func TestNewSynchronized(t *testing.T) {
	g, err := thinunison.Path(6)
	if err != nil {
		t.Fatal(err)
	}
	or := func(self bool, sensed []bool, _ *rand.Rand) bool {
		for _, b := range sensed {
			if b {
				return true
			}
		}
		return self
	}
	initial := make([]bool, g.N())
	initial[0] = true
	s, err := thinunison.NewSynchronized[bool](g, or, initial,
		thinunison.WithSeed(4),
		thinunison.WithScheduler(thinunison.RoundRobin()))
	if err != nil {
		t.Fatal(err)
	}
	k := 3*g.Diameter() + 2
	rounds, ok := s.RunUntil(func(states []bool) bool {
		for _, b := range states {
			if !b {
				return false
			}
		}
		return true
	}, 60*k*k*k+1000)
	if !ok {
		t.Fatal("gossip never completed under asynchrony")
	}
	t.Logf("asynchronous gossip completed after %d rounds", rounds)
	if s.StateSpaceSize(2) != (12*g.Diameter()+6)*4 {
		t.Errorf("StateSpaceSize(2) = %d", s.StateSpaceSize(2))
	}
	s.Step()
	s.RunRounds(1)
	if s.Rounds() == 0 {
		t.Error("Rounds should be positive")
	}
	if len(s.States()) != g.N() {
		t.Error("States length mismatch")
	}
	if _, err := thinunison.NewSynchronized[bool](g, or, []bool{true}); err == nil {
		t.Error("wrong-length initial should fail")
	}
}
