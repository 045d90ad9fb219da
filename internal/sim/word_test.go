package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/obs"
	"thinunison/internal/sim"
)

// TestWordMatchesScalarTrajectories is the engine-level differential harness
// of word-parallel execution: for every graph × scheduler × frontier ×
// P ∈ {0, 1, 2, 8} (which the engine ignores), a word run must be
// byte-identical to the scalar run of the same seed at every step —
// configurations, round counters and step counters alike — including across
// a mid-run fault burst.
func TestWordMatchesScalarTrajectories(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	au, err := core.NewAU(3)
	if err != nil {
		t.Fatal(err)
	}
	if au.Kernel() == nil {
		t.Fatal("AU(3) should offer a word kernel")
	}
	for gname, g := range frontierGraphs(t, rng) {
		for sname, mk := range frontierSchedulers(42) {
			for _, front := range []bool{false, true} {
				for _, p := range []int{0, 1, 2, 8} {
					name := fmt.Sprintf("%s/%s/front=%v/p=%d", gname, sname, front, p)
					build := func(word bool) *sim.Engine {
						e, err := sim.New(g, au, sim.Options{
							Scheduler:    mk(),
							Seed:         7,
							Parallelism:  p,
							Frontier:     front,
							WordParallel: word,
						})
						if err != nil {
							t.Fatal(err)
						}
						return e
					}
					scalar := build(false)
					word := build(true)
					if !word.WordActive() {
						t.Fatalf("%s: word engine fell back to scalar", name)
					}
					wantTraj := runTrajectory(t, scalar, 40)
					gotTraj := runTrajectory(t, word, 40)
					scalar.Close()
					word.Close()
					for i := range wantTraj {
						if wantTraj[i] != gotTraj[i] {
							t.Fatalf("%s: step %d diverged:\nscalar: %s\nword:   %s",
								name, i, wantTraj[i], gotTraj[i])
						}
					}
				}
			}
		}
	}
}

// TestWordMonitorParity checks that a GoodMonitor on a word engine tracks
// exactly the same verdicts and trajectory counters as one on a scalar
// engine — including MonitorPromotions and the AA/AF/FA transition tallies,
// which the word engine's certified batches must reproduce exactly — across
// stabilization, a fault burst, and re-stabilization.
func TestWordMonitorParity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := graph.BoundedDiameter(80, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	au, err := core.NewAU(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, front := range []bool{false, true} {
		for _, p := range []int{0, 2} {
			name := fmt.Sprintf("front=%v/p=%d", front, p)
			build := func(word bool) (*sim.Engine, *core.GoodMonitor, *obs.Metrics) {
				mx := &obs.Metrics{}
				e, err := sim.New(g, au, sim.Options{
					Seed:         11,
					Parallelism:  p,
					Frontier:     front,
					WordParallel: word,
					Metrics:      mx,
				})
				if err != nil {
					t.Fatal(err)
				}
				mon := core.NewGoodMonitor(au, g, e.Config())
				mon.Instrument(mx)
				e.Observe(mon)
				return e, mon, mx
			}
			scalar, smon, smx := build(false)
			word, wmon, wmx := build(true)
			for i := 0; i < 200; i++ {
				if i == 120 {
					scalar.InjectFaults(6)
					word.InjectFaults(6)
				}
				if err := scalar.Step(); err != nil {
					t.Fatal(err)
				}
				if err := word.Step(); err != nil {
					t.Fatal(err)
				}
				if smon.Good() != wmon.Good() || smon.BadNodes() != wmon.BadNodes() {
					t.Fatalf("%s step %d: monitor diverged: scalar (good=%v bad=%d) word (good=%v bad=%d)",
						name, i, smon.Good(), smon.BadNodes(), wmon.Good(), wmon.BadNodes())
				}
			}
			sTraj := smx.Snapshot().Trajectory()
			wTraj := wmx.Snapshot().Trajectory()
			if sTraj != wTraj {
				t.Fatalf("%s: trajectory counters diverged:\nscalar: %+v\nword:   %+v", name, sTraj, wTraj)
			}
			if wmx.WordSteps.Load() == 0 {
				t.Fatalf("%s: word engine recorded no WordSteps", name)
			}
			if smx.WordSteps.Load() != 0 {
				t.Fatalf("%s: scalar engine recorded WordSteps", name)
			}
			scalar.Close()
			word.Close()
		}
	}
}

// TestWordMatchesScalarUnderChurn runs the stochastic churn process on word
// and scalar engines (dense and frontier, at P = 0 and P ≥ 1) and demands
// byte-identical trajectories: churn re-compacts the CSR arrays the word
// runtime scans and leaves the rewired endpoints' goodness bits stale until
// they are re-evaluated, so this exercises every repair path.
func TestWordMatchesScalarUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g0, err := graph.BoundedDiameter(70, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	au, err := core.NewAU(3)
	if err != nil {
		t.Fatal(err)
	}
	spec := &sim.ChurnSpec{
		Period:           5,
		Flips:            3,
		Crashes:          1,
		MaxEvents:        8,
		Seed:             99,
		KeepConnected:    true,
		MaxDiameterUpper: 3,
	}
	for _, front := range []bool{false, true} {
		for _, p := range []int{0, 2} {
			name := fmt.Sprintf("front=%v/p=%d", front, p)
			build := func(word bool) (*sim.Engine, *graph.Graph) {
				// Each engine mutates its own copy of the topology.
				g, err := graph.New(g0.N(), g0.Edges())
				if err != nil {
					t.Fatal(err)
				}
				e, err := sim.New(g, au, sim.Options{
					Seed:         13,
					Parallelism:  p,
					Frontier:     front,
					WordParallel: word,
					Churn:        spec,
				})
				if err != nil {
					t.Fatal(err)
				}
				mon := core.NewGoodMonitor(au, g, e.Config())
				e.Observe(mon)
				return e, g
			}
			scalar, sg := build(false)
			word, wg := build(true)
			for i := 0; i < 80; i++ {
				if err := scalar.Step(); err != nil {
					t.Fatal(err)
				}
				if err := word.Step(); err != nil {
					t.Fatal(err)
				}
				if fmt.Sprintf("%v", scalar.Config()) != fmt.Sprintf("%v", word.Config()) {
					t.Fatalf("%s: step %d: configurations diverged", name, i)
				}
				if sg.M() != wg.M() {
					t.Fatalf("%s: step %d: churned topologies diverged (%d vs %d edges)", name, i, sg.M(), wg.M())
				}
			}
			scalar.Close()
			word.Close()
		}
	}
}

// TestWordFallback: WordParallel must silently fall back to scalar execution
// when the algorithm offers no kernel — either no sa.WordKernel at all
// (coinAlg) or a state space wider than a machine word (AU(5): |Q| = 66).
func TestWordFallback(t *testing.T) {
	g, err := graph.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(g, coinAlg{}, sim.Options{WordParallel: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e.WordActive() {
		t.Fatal("word mode active on a kernel-less algorithm")
	}
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}

	wide, err := core.NewAU(5) // |Q| = 12·5+6 = 66 > 64: no kernel
	if err != nil {
		t.Fatal(err)
	}
	if wide.Kernel() != nil {
		t.Fatal("AU(5) unexpectedly offers a kernel")
	}
	e2, err := sim.New(g, wide, sim.Options{WordParallel: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e2.WordActive() {
		t.Fatal("word mode active on a |Q| > 64 algorithm")
	}
	if err := e2.Step(); err != nil {
		t.Fatal(err)
	}
	if e2.Metrics().WordSteps.Load() != 0 {
		t.Fatal("fallback engine counted WordSteps")
	}
}

// TestEnginePlanes: the engine's bit-plane checkpoint view must round-trip
// the live configuration.
func TestEnginePlanes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g, err := graph.BoundedDiameter(50, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	au, err := core.NewAU(3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(g, au, sim.Options{Seed: 2, WordParallel: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	p := e.Planes()
	for v, q := range e.Config() {
		if p.Get(v) != q {
			t.Fatalf("plane view of node %d = %d, want %d", v, p.Get(v), q)
		}
	}
}
