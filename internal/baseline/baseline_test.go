package baseline_test

import (
	"math/rand"
	"slices"
	"testing"

	"thinunison/internal/baseline"
	"thinunison/internal/graph"
	"thinunison/internal/sa"
	"thinunison/internal/sched"
	"thinunison/internal/sim"
)

func TestConstruction(t *testing.T) {
	if _, err := baseline.NewMinUnison(1); err == nil {
		t.Error("M=1 should fail")
	}
	b, err := baseline.NewMinUnison(10)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumStates() != 10 || b.M() != 10 {
		t.Errorf("NumStates=%d M=%d", b.NumStates(), b.M())
	}
	if !b.IsOutput(3) || b.Output(3) != 3 {
		t.Error("all states are output states equal to the clock")
	}
	if b.StateName(4) != "c4" {
		t.Errorf("StateName = %q", b.StateName(4))
	}
}

// TestMinRuleStabilizesFast: with an effectively unbounded clock range, the
// min-rule baseline satisfies safety within O(D) synchronous rounds from any
// configuration — the classic Awerbuch et al. guarantee our E6 comparison
// quotes.
func TestMinRuleStabilizesFast(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		g, err := graph.RandomConnected(4+rng.Intn(12), 0.3, rng)
		if err != nil {
			t.Fatal(err)
		}
		d := g.Diameter()
		horizon := 10 * (d + 2)
		b, err := baseline.NewMinUnison(64 + horizon) // unbounded emulation
		if err != nil {
			t.Fatal(err)
		}
		initial := make(sa.Config, g.N())
		for v := range initial {
			initial[v] = rng.Intn(64) // adversarial clocks within [0,64)
		}
		eng, err := sim.New(g, b, sim.Options{Initial: initial, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		rounds, err := eng.RunUntil(func(e *sim.Engine) bool {
			return b.SafetyHolds(g, e.Config())
		}, horizon)
		if err != nil {
			t.Fatalf("trial %d: no safety within %d rounds: %v", trial, horizon, err)
		}
		if rounds > 2*d+2 {
			t.Errorf("trial %d: min rule took %d rounds, want O(D)=O(%d)", trial, rounds, d)
		}
	}
}

// TestMinRuleSaturationIsBroken documents why the bounded-range baseline is
// not a correct AU algorithm: at the saturation boundary the clock stops,
// violating liveness — the gap AlgAU fills with O(D) states.
func TestMinRuleSaturationIsBroken(t *testing.T) {
	g, err := graph.Path(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := baseline.NewMinUnison(4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.New(g, b, sim.Options{Initial: slices.Repeat(sa.Config{3}, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunRounds(10); err != nil {
		t.Fatal(err)
	}
	for v, q := range eng.Config() {
		if q != 3 {
			t.Errorf("node %d moved off saturation: %d", v, q)
		}
	}
}

// TestMinRuleUnderAsynchrony: the min rule also stabilizes under
// asynchronous schedulers (it is the time baseline for E6's async column).
func TestMinRuleUnderAsynchrony(t *testing.T) {
	g, err := graph.Cycle(8)
	if err != nil {
		t.Fatal(err)
	}
	d := g.Diameter()
	b, err := baseline.NewMinUnison(1000)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.New(g, b, sim.Options{
		Scheduler: sched.NewRandomSubset(0.4, 8, rand.New(rand.NewSource(2))),
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunUntil(func(e *sim.Engine) bool {
		return b.SafetyHolds(g, e.Config())
	}, 20*(d+2)); err != nil {
		t.Fatalf("no safety under asynchrony: %v", err)
	}
}

func TestStatesForHorizon(t *testing.T) {
	if got := baseline.StatesForHorizon(10, 100); got != 111 {
		t.Errorf("StatesForHorizon = %d, want 111", got)
	}
}
