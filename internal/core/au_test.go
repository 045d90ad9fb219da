package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/sa"
	"thinunison/internal/sched"
	"thinunison/internal/sim"
)

func mustAU(t *testing.T, d int) *core.AU {
	t.Helper()
	au, err := core.NewAU(d)
	if err != nil {
		t.Fatalf("NewAU(%d): %v", d, err)
	}
	return au
}

func TestStateSpaceSize(t *testing.T) {
	for d := 1; d <= 10; d++ {
		au := mustAU(t, d)
		want := 12*d + 6 // 4k-2 with k = 3D+2
		if got := au.NumStates(); got != want {
			t.Errorf("D=%d: NumStates() = %d, want %d", d, got, want)
		}
	}
}

func TestStateTurnRoundTrip(t *testing.T) {
	au := mustAU(t, 3)
	for q := 0; q < au.NumStates(); q++ {
		turn := au.Turn(q)
		back, err := au.State(turn)
		if err != nil {
			t.Fatalf("State(%v): %v", turn, err)
		}
		if back != q {
			t.Errorf("round trip %d -> %v -> %d", q, turn, back)
		}
	}
}

func TestOutputStatesAreAbleTurns(t *testing.T) {
	au := mustAU(t, 2)
	for q := 0; q < au.NumStates(); q++ {
		turn := au.Turn(q)
		if au.IsOutput(q) == turn.Faulty {
			t.Errorf("state %d (%v): IsOutput=%v, faulty=%v", q, turn, au.IsOutput(q), turn.Faulty)
		}
		if au.IsOutput(q) {
			if got, want := au.Output(q), au.Levels().Index(turn.Level); got != want {
				t.Errorf("Output(%d) = %d, want %d", q, got, want)
			}
		}
	}
}

func TestInvalidConstruction(t *testing.T) {
	if _, err := core.NewAU(0); err == nil {
		t.Error("NewAU(0) should fail")
	}
	au := mustAU(t, 1)
	if _, err := au.State(core.Turn{Level: 1, Faulty: true}); err == nil {
		t.Error("faulty turn at level 1 should be invalid")
	}
	if _, err := au.State(core.Turn{Level: 0}); err == nil {
		t.Error("level 0 should be invalid")
	}
	if _, err := au.State(core.Turn{Level: core.Level(au.K() + 1)}); err == nil {
		t.Error("level k+1 should be invalid")
	}
}

// schedulersFor returns the scheduler suite used by the stabilization tests.
func schedulersFor(seed int64) []sched.Scheduler {
	return []sched.Scheduler{
		sched.NewSynchronous(),
		sched.NewRoundRobin(),
		sched.NewRandomSubsetSeeded(0.35, 16, seed),
		sched.NewLaggard(0, 5),
		sched.NewPermutedSeeded(seed + 1),
	}
}

func graphsFor(t *testing.T, rng *rand.Rand) map[string]*graph.Graph {
	t.Helper()
	gs := make(map[string]*graph.Graph)
	add := func(name string, g *graph.Graph, err error) {
		if err != nil {
			t.Fatalf("building %s: %v", name, err)
		}
		gs[name] = g
	}
	g, err := graph.Path(6)
	add("path6", g, err)
	g, err = graph.Cycle(7)
	add("cycle7", g, err)
	g, err = graph.Complete(5)
	add("complete5", g, err)
	g, err = graph.Star(8)
	add("star8", g, err)
	g, err = graph.Grid(3, 4)
	add("grid3x4", g, err)
	g, err = graph.RandomConnected(10, 0.3, rng)
	add("random10", g, err)
	return gs
}

// TestStabilization is the Theorem 1.1 smoke test: from adversarial random
// initial configurations, under a suite of fair schedulers, the graph
// becomes good within the O(D^3) round budget, and afterwards safety and
// liveness hold (checked by the Monitor).
func TestStabilization(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for name, g := range graphsFor(t, rng) {
		d := g.Diameter()
		if d < 1 {
			d = 1
		}
		au := mustAU(t, d)
		k := au.K()
		budget := 40*k*k*k + 200 // generous c * k^3

		for si, s := range schedulersFor(7) {
			for trial := 0; trial < 3; trial++ {
				name := fmt.Sprintf("%s/%s/trial%d", name, s.Name(), trial)
				eng, err := sim.New(g, au, sim.Options{
					Scheduler: s,
					Seed:      int64(1000*si + trial),
				})
				if err != nil {
					t.Fatalf("%s: New: %v", name, err)
				}
				mon := core.NewMonitor(au, g)
				eng.AddHook(func(e *sim.Engine) error { return mon.Check(e.Config()) })

				rounds, err := eng.RunUntil(func(e *sim.Engine) bool {
					return au.GraphGood(g, e.Config())
				}, budget)
				if err != nil {
					t.Fatalf("%s: did not stabilize within %d rounds: %v", name, budget, err)
				}
				// Liveness (Lem. 2.11): during [t, ϱ^{D+i}(t)) every node
				// advances its clock at least i times. Stabilization may
				// happen mid-round, so one extra global round is needed to
				// cover ϱ^{D+i} measured from the stabilization time.
				const extra = 10
				if err := eng.RunRounds(au.D() + extra + 1); err != nil {
					t.Fatalf("%s: post-stabilization run: %v", name, err)
				}
				for v, ups := range mon.ClockUpdates() {
					if ups < extra {
						t.Errorf("%s: node %d advanced clock %d times in D+%d rounds, want >= %d (stabilized after %d rounds)",
							name, v, ups, extra, extra, rounds)
					}
				}
			}
		}
	}
}

// TestStabilizationFromGood checks the closure property (Lem. 2.10/2.11):
// starting from a uniform configuration (all nodes at level 1), the graph is
// good immediately and ticks forever.
func TestStabilizationFromGood(t *testing.T) {
	g, err := graph.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	au := mustAU(t, g.Diameter())
	q := au.MustState(core.Turn{Level: 1})
	eng, err := sim.New(g, au, sim.Options{Initial: slices.Repeat(sa.Config{q}, g.N()), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !au.GraphGood(g, eng.Config()) {
		t.Fatal("uniform level-1 configuration should be good")
	}
	mon := core.NewMonitor(au, g)
	eng.AddHook(func(e *sim.Engine) error { return mon.Check(e.Config()) })
	if err := eng.RunRounds(100); err != nil {
		t.Fatalf("run: %v", err)
	}
	for v, ups := range mon.ClockUpdates() {
		if ups == 0 {
			t.Errorf("node %d never advanced its clock", v)
		}
	}
}

// TestWorstCaseConfigurations drives AlgAU from hand-crafted adversarial
// configurations (max clock discrepancy, all-faulty, alternating signs) and
// checks stabilization within the budget.
func TestWorstCaseConfigurations(t *testing.T) {
	g, err := graph.Path(5)
	if err != nil {
		t.Fatal(err)
	}
	au := mustAU(t, g.Diameter())
	k := au.K()
	budget := 60 * k * k * k

	mk := func(turns ...core.Turn) sa.Config {
		cfg := make(sa.Config, len(turns))
		for i, tt := range turns {
			cfg[i] = au.MustState(tt)
		}
		return cfg
	}
	able := func(l int) core.Turn { return core.Turn{Level: core.Level(l)} }
	faulty := func(l int) core.Turn { return core.Turn{Level: core.Level(l), Faulty: true} }

	cases := map[string]sa.Config{
		"max-discrepancy": mk(able(-k), able(k), able(-k), able(k), able(-k)),
		"all-faulty":      mk(faulty(k), faulty(-k), faulty(3), faulty(-3), faulty(2)),
		"mixed":           mk(able(1), faulty(k), able(-2), faulty(-k), able(k)),
		"antipodal":       mk(able(1), able(2), able(3), able(k-1), able(k)),
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			eng, err := sim.New(g, au, sim.Options{Initial: cfg, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			mon := core.NewMonitor(au, g)
			eng.AddHook(func(e *sim.Engine) error { return mon.Check(e.Config()) })
			if _, err := eng.RunUntil(func(e *sim.Engine) bool {
				return au.GraphGood(g, e.Config())
			}, budget); err != nil {
				t.Fatalf("did not stabilize: %v", err)
			}
		})
	}
}
