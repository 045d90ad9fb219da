package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/sa"
	"thinunison/internal/sched"
	"thinunison/internal/sim"
)

// frontierSchedulers returns fresh scheduler builders (schedulers are
// stateful) seeded identically, covering the sparse fast paths
// (synchronous, round-robin, laggard) and the generic intersection path
// (random-subset, permuted, scripted).
func frontierSchedulers(seed int64) map[string]func() sched.Scheduler {
	return map[string]func() sched.Scheduler{
		"synchronous":   func() sched.Scheduler { return sched.NewSynchronous() },
		"round-robin":   func() sched.Scheduler { return sched.NewRoundRobin() },
		"laggard":       func() sched.Scheduler { return sched.NewLaggard(2, 3) },
		"random-subset": func() sched.Scheduler { return sched.NewRandomSubsetSeeded(0.4, 8, seed) },
		"permuted":      func() sched.Scheduler { return sched.NewPermutedSeeded(seed) },
		"scripted": func() sched.Scheduler {
			return sched.NewScripted([][]int{{0, 1}, {3, 2, 2, 1}, {}, {4, 0}}, false)
		},
	}
}

func frontierGraphs(t *testing.T, rng *rand.Rand) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{}
	var err error
	if gs["cycle"], err = graph.Cycle(17); err != nil {
		t.Fatal(err)
	}
	if gs["star"], err = graph.Star(25); err != nil {
		t.Fatal(err)
	}
	if gs["bounded"], err = graph.BoundedDiameter(60, 3, rng); err != nil {
		t.Fatal(err)
	}
	return gs
}

// runTrajectory drives an engine for steps steps (with a mid-run fault
// burst) and returns the per-step configuration fingerprints plus the final
// round/step counters.
func runTrajectory(t *testing.T, e *sim.Engine, steps int) []string {
	t.Helper()
	var out []string
	for i := 0; i < steps; i++ {
		if i == steps/2 {
			e.InjectFaults(4)
		}
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%v r%d s%d", e.Config(), e.Rounds(), e.StepCount()))
	}
	return out
}

// TestFrontierMatchesDenseTrajectories is the engine-level differential
// harness of frontier-sparse execution: for every graph × scheduler ×
// P ∈ {0, 1, 2, 8} (which the engine ignores), a frontier run must be
// byte-identical to the dense run of the same seed at every step —
// configurations, round counters and step counters alike — including
// across a mid-run fault burst.
func TestFrontierMatchesDenseTrajectories(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	au, err := core.NewAU(3)
	if err != nil {
		t.Fatal(err)
	}
	for gname, g := range frontierGraphs(t, rng) {
		for sname, mk := range frontierSchedulers(42) {
			for _, p := range []int{0, 1, 2, 8} {
				name := fmt.Sprintf("%s/%s/p=%d", gname, sname, p)
				build := func(front bool) *sim.Engine {
					e, err := sim.New(g, au, sim.Options{
						Scheduler:   mk(),
						Seed:        7,
						Parallelism: p,
						Frontier:    front,
					})
					if err != nil {
						t.Fatal(err)
					}
					return e
				}
				dense := build(false)
				front := build(true)
				wantTraj := runTrajectory(t, dense, 40)
				gotTraj := runTrajectory(t, front, 40)
				dense.Close()
				front.Close()
				for i := range wantTraj {
					if wantTraj[i] != gotTraj[i] {
						t.Fatalf("%s: step %d diverged:\ndense:    %s\nfrontier: %s",
							name, i, wantTraj[i], gotTraj[i])
					}
				}
			}
		}
	}
}

// TestFrontierObserverParity checks that a GoodMonitor fed by a frontier
// engine tracks exactly the same verdicts as one fed by a dense engine: the
// skipped (settled) nodes never change state, so the observer stream must
// be unaffected.
func TestFrontierObserverParity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := graph.BoundedDiameter(80, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	au, err := core.NewAU(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 2} {
		build := func(front bool) (*sim.Engine, *core.GoodMonitor) {
			e, err := sim.New(g, au, sim.Options{
				Scheduler:   sched.NewLaggard(0, 4),
				Seed:        11,
				Parallelism: p,
				Frontier:    front,
			})
			if err != nil {
				t.Fatal(err)
			}
			mon := core.NewGoodMonitor(au, g, e.Config())
			e.Observe(mon)
			return e, mon
		}
		dense, dmon := build(false)
		front, fmon := build(true)
		for i := 0; i < 120; i++ {
			if i == 60 {
				dense.InjectFaults(6)
				front.InjectFaults(6)
			}
			if err := dense.Step(); err != nil {
				t.Fatal(err)
			}
			if err := front.Step(); err != nil {
				t.Fatal(err)
			}
			if dmon.Good() != fmon.Good() || dmon.BadNodes() != fmon.BadNodes() {
				t.Fatalf("p=%d step %d: monitor diverged: dense (good=%v bad=%d) frontier (good=%v bad=%d)",
					p, i, dmon.Good(), dmon.BadNodes(), fmon.Good(), fmon.BadNodes())
			}
		}
		dense.Close()
		front.Close()
	}
}

// TestFrontierDisabledWithoutCapability: Options.Frontier on an algorithm
// without sa.SelfLooper must silently fall back to dense execution.
func TestFrontierDisabledWithoutCapability(t *testing.T) {
	g, err := graph.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(g, coinAlg{}, sim.Options{Frontier: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e.FrontierLen() != -1 {
		t.Fatalf("FrontierLen = %d on a non-SelfLooper algorithm, want -1", e.FrontierLen())
	}
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
}

// coinAlg flips between two states at random: no transition is ever a
// deterministic self-loop, so it cannot implement sa.SelfLooper soundly.
type coinAlg struct{}

func (coinAlg) NumStates() int      { return 2 }
func (coinAlg) IsOutput(q int) bool { return true }
func (coinAlg) Output(q int) int    { return q }
func (coinAlg) Transition(q sa.State, _ sa.Signal, rng *rand.Rand) sa.State {
	return rng.Intn(2)
}
