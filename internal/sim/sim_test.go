package sim_test

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"thinunison/internal/graph"
	"thinunison/internal/sa"
	"thinunison/internal/sched"
	"thinunison/internal/sim"
)

// flood is a tiny deterministic algorithm: state 1 is "infected"; a node
// becomes infected when it senses state 1. Useful for checking engine
// semantics precisely.
type flood struct{}

func (flood) NumStates() int      { return 2 }
func (flood) IsOutput(q int) bool { return true }
func (flood) Output(q int) int    { return q }
func (flood) Transition(q int, sig sa.Signal, _ *rand.Rand) int {
	if sig.Has(1) {
		return 1
	}
	return q
}

func mustPath(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := graph.Path(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	g := mustPath(t, 3)
	if _, err := sim.New(g, flood{}, sim.Options{Initial: sa.Config{0}}); err == nil {
		t.Error("wrong-length initial config should fail")
	}
	if _, err := sim.New(g, flood{}, sim.Options{Initial: sa.Config{0, 5, 0}}); err == nil {
		t.Error("out-of-range initial state should fail")
	}
	disc, err := graph.New(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.New(disc, flood{}, sim.Options{}); err == nil {
		t.Error("disconnected graph should fail")
	}
}

// TestSynchronousFloodSemantics: under the synchronous schedule, infection
// spreads exactly one hop per step — pinning the "read C_t, write C_{t+1}"
// simultaneity semantics.
func TestSynchronousFloodSemantics(t *testing.T) {
	g := mustPath(t, 5)
	init := sa.Config{1, 0, 0, 0, 0}
	eng, err := sim.New(g, flood{}, sim.Options{Initial: init})
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 4; step++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.N(); v++ {
			want := 0
			if v <= step {
				want = 1
			}
			if got := eng.Config()[v]; got != want {
				t.Fatalf("step %d node %d: state %d, want %d", step, v, got, want)
			}
		}
	}
	if eng.StepCount() != 4 || eng.Rounds() != 4 {
		t.Errorf("StepCount=%d Rounds=%d, want 4, 4", eng.StepCount(), eng.Rounds())
	}
}

// TestRoundRobinSequentialSemantics: with one activation per step, a full
// left-to-right sweep floods the whole path in a single round (later nodes
// see earlier nodes' updates).
func TestRoundRobinSequentialSemantics(t *testing.T) {
	g := mustPath(t, 5)
	init := sa.Config{1, 0, 0, 0, 0}
	eng, err := sim.New(g, flood{}, sim.Options{
		Initial:   init,
		Scheduler: sched.NewRoundRobin(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunRounds(1); err != nil {
		t.Fatal(err)
	}
	for v, q := range eng.Config() {
		if q != 1 {
			t.Errorf("node %d not infected after one sequential sweep", v)
		}
	}
}

func TestRunUntilBudget(t *testing.T) {
	g := mustPath(t, 4)
	eng, err := sim.New(g, flood{}, sim.Options{Initial: slices.Repeat(sa.Config{0}, 4)})
	if err != nil {
		t.Fatal(err)
	}
	// Nothing is infected: the condition never holds.
	r, err := eng.RunUntil(func(e *sim.Engine) bool {
		return e.Config()[3] == 1
	}, 10)
	if !errors.Is(err, sim.ErrBudgetExhausted) {
		t.Errorf("err = %v, want ErrBudgetExhausted", err)
	}
	if r != 10 {
		t.Errorf("rounds = %d, want 10", r)
	}
}

func TestHooksAbortRun(t *testing.T) {
	g := mustPath(t, 3)
	eng, err := sim.New(g, flood{}, sim.Options{Initial: slices.Repeat(sa.Config{0}, 3)})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	calls := 0
	eng.AddHook(func(e *sim.Engine) error {
		calls++
		if calls == 3 {
			return boom
		}
		return nil
	})
	err = eng.RunRounds(10)
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
	if calls != 3 {
		t.Errorf("hook called %d times, want 3", calls)
	}
}

func TestInjectFaultsAndSetState(t *testing.T) {
	g := mustPath(t, 6)
	eng, err := sim.New(g, flood{}, sim.Options{Initial: slices.Repeat(sa.Config{0}, 6), Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	hit := eng.InjectFaults(3)
	if len(hit) != 3 {
		t.Errorf("InjectFaults returned %d nodes", len(hit))
	}
	if err := eng.SetState(0, 1); err != nil {
		t.Fatal(err)
	}
	if eng.Config()[0] != 1 {
		t.Error("SetState ineffective")
	}
	if err := eng.SetState(-1, 0); err == nil {
		t.Error("negative node should fail")
	}
	if err := eng.SetState(0, 9); err == nil {
		t.Error("out-of-range state should fail")
	}
	// Injecting more faults than nodes clamps.
	if got := eng.InjectFaults(100); len(got) != g.N() {
		t.Errorf("clamped injection hit %d nodes", len(got))
	}
}

func TestRunUntilZeroBudgetReportsZeroRounds(t *testing.T) {
	g := mustPath(t, 4)
	eng, err := sim.New(g, flood{}, sim.Options{Initial: sa.Config{0, 0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := eng.RunUntil(func(*sim.Engine) bool { return false }, 0)
	if !errors.Is(err, sim.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if r != 0 {
		t.Errorf("rounds = %d, want 0 (no step was taken)", r)
	}
}

func TestSignalOfIncludesSelf(t *testing.T) {
	g := mustPath(t, 3)
	eng, err := sim.New(g, flood{}, sim.Options{Initial: sa.Config{1, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	sig := sa.NewSignal(2)
	eng.SignalOf(0, &sig)
	if !sig.Has(1) || !sig.Has(0) {
		t.Error("signal of node 0 should contain its own state 1 and neighbor state 0")
	}
	eng.SignalOf(2, &sig)
	if sig.Has(1) {
		t.Error("node 2 should not sense state 1 (two hops away)")
	}
}

// TestDeterminism: two engines with identical seeds produce identical runs.
func TestDeterminism(t *testing.T) {
	g := mustPath(t, 6)
	rng := rand.New(rand.NewSource(7))
	mk := func() *sim.Engine {
		e, err := sim.New(g, flood{}, sim.Options{
			Seed:      42,
			Scheduler: sched.NewRandomSubsetSeeded(0.4, 8, 9),
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := mk(), mk()
	for i := 0; i < 100; i++ {
		if err := a.Step(); err != nil {
			t.Fatal(err)
		}
		if err := b.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !a.Config().Equal(b.Config()) {
		t.Error("identical seeds diverged")
	}
	_ = rng
}
