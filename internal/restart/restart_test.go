package restart_test

import (
	"fmt"
	"math/rand"
	"testing"

	"thinunison/internal/asyncsim"
	"thinunison/internal/graph"
	"thinunison/internal/restart"
)

// trivial wrapped algorithm: a saturating counter that never detects faults.
type counter struct{ N int }

func newModule(t *testing.T, d int) *restart.Module[counter] {
	t.Helper()
	mod, err := restart.NewModule[counter](
		d,
		func() counter { return counter{} },
		func(self counter, _ []counter, _ *rand.Rand) (counter, bool) {
			return counter{N: self.N + 1}, false
		},
	)
	if err != nil {
		t.Fatalf("NewModule: %v", err)
	}
	return mod
}

func TestModuleValidation(t *testing.T) {
	if _, err := restart.NewModule[counter](0, func() counter { return counter{} },
		func(c counter, _ []counter, _ *rand.Rand) (counter, bool) { return c, false }); err == nil {
		t.Error("d=0 should fail")
	}
	if _, err := restart.NewModule[counter](1, nil, nil); err == nil {
		t.Error("nil funcs should fail")
	}
}

func runEngine(t *testing.T, g *graph.Graph, mod *restart.Module[counter], initial []restart.State[counter]) *asyncsim.Engine[restart.State[counter]] {
	t.Helper()
	eng, err := asyncsim.New(g, mod.Step, initial, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestTheorem31 is experiment E5: for every graph in a suite and every
// "some node in Restart" initial configuration pattern, all nodes exit
// Restart concurrently within 3D rounds of the first round, landing in q*0.
func TestTheorem31(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	graphs := map[string]*graph.Graph{}
	for name, build := range map[string]func() (*graph.Graph, error){
		"path5":   func() (*graph.Graph, error) { return graph.Path(5) },
		"cycle6":  func() (*graph.Graph, error) { return graph.Cycle(6) },
		"star7":   func() (*graph.Graph, error) { return graph.Star(7) },
		"k5":      func() (*graph.Graph, error) { return graph.Complete(5) },
		"grid3x3": func() (*graph.Graph, error) { return graph.Grid(3, 3) },
		"rand9":   func() (*graph.Graph, error) { return graph.RandomConnected(9, 0.3, rng) },
	} {
		g, err := build()
		if err != nil {
			t.Fatal(err)
		}
		graphs[name] = g
	}

	for name, g := range graphs {
		d := g.Diameter()
		if d < 1 {
			d = 1
		}
		mod := newModule(t, d)
		for trial := 0; trial < 20; trial++ {
			t.Run(fmt.Sprintf("%s/trial%d", name, trial), func(t *testing.T) {
				// Adversarial initial configuration: random mix of Restart
				// positions and algorithm states, with at least one node in
				// Restart.
				initial := make([]restart.State[counter], g.N())
				for v := range initial {
					if rng.Intn(2) == 0 {
						initial[v] = restart.State[counter]{InRestart: true, Pos: rng.Intn(2*d + 1)}
					} else {
						initial[v] = restart.State[counter]{Alg: counter{N: rng.Intn(5)}}
					}
				}
				initial[rng.Intn(g.N())] = restart.State[counter]{InRestart: true, Pos: rng.Intn(2*d + 1)}

				eng := runEngine(t, g, mod, initial)
				// Theorem 3.1: there is a time t <= t0 + O(D) at which ALL
				// nodes exit Restart concurrently. Nodes may exit early in
				// adversarial initializations (e.g. a σ(2D) pocket), but
				// rule 1 pulls them back in; the guarantee is the eventual
				// concurrent global exit. We verify it occurs within a 6D+4
				// budget (entry floods, one climb, exit march).
				budget := 6*d + 4
				concurrentExit := false
				for r := 0; r < budget && !concurrentExit; r++ {
					prev := eng.States()
					eng.Step()
					cur := eng.States()
					all := true
					for v := range cur {
						if !prev[v].InRestart || cur[v].InRestart || cur[v].Alg.N != 0 {
							all = false
							break
						}
					}
					concurrentExit = all
				}
				if !concurrentExit {
					t.Fatalf("no concurrent global exit within %d rounds", budget)
				}
			})
		}
	}
}

// TestRestartFlood checks Lemma 3.9's flood behavior: a single node entering
// Restart pulls the whole graph into Restart within D rounds.
func TestRestartFlood(t *testing.T) {
	g, err := graph.Path(6)
	if err != nil {
		t.Fatal(err)
	}
	d := g.Diameter()
	mod := newModule(t, d)
	initial := make([]restart.State[counter], g.N())
	for v := range initial {
		initial[v] = restart.State[counter]{Alg: counter{N: 3}}
	}
	initial[0] = mod.Enter()
	eng := runEngine(t, g, mod, initial)
	for r := 0; r < d; r++ {
		eng.Step()
	}
	for v, s := range eng.States() {
		if !s.InRestart {
			t.Errorf("node %d not in Restart after D=%d rounds", v, d)
		}
	}
}

// TestNoSpuriousRestart checks that a configuration with no Restart state
// and no detection never enters Restart.
func TestNoSpuriousRestart(t *testing.T) {
	g, err := graph.Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	mod := newModule(t, g.Diameter())
	initial := make([]restart.State[counter], g.N())
	eng := runEngine(t, g, mod, initial)
	for r := 0; r < 50; r++ {
		eng.Step()
	}
	for v, s := range eng.States() {
		if s.InRestart {
			t.Errorf("node %d spuriously entered Restart", v)
		}
		if s.Alg.N != 50 {
			t.Errorf("node %d counter = %d, want 50 (wrapped algorithm must run undisturbed)", v, s.Alg.N)
		}
	}
}

// TestStepOutsideRestartAllocatesNothing: a step outside Restart hands the
// wrapped step the sensed algorithm states without allocating, and hands
// the right ones.
func TestStepOutsideRestartAllocatesNothing(t *testing.T) {
	var sum int
	mod, err := restart.NewModule[counter](
		2,
		func() counter { return counter{} },
		func(self counter, sensed []counter, _ *rand.Rand) (counter, bool) {
			sum = 0
			for _, s := range sensed {
				sum += s.N
			}
			return counter{N: self.N + 1}, false
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	sensed := make([]restart.State[counter], 12)
	for i := range sensed {
		sensed[i] = restart.State[counter]{Alg: counter{N: i}}
	}
	self := restart.State[counter]{Alg: counter{N: 4}}
	if n := testing.AllocsPerRun(100, func() { self = mod.Step(self, sensed, nil) }); n != 0 {
		t.Fatalf("Step allocates %v times per call, want 0", n)
	}
	if sum != 66 || self.InRestart {
		t.Fatalf("wrapped step saw a sum of %d, want 66; state %v", sum, self)
	}
}

// TestDetectionTriggersGlobalReset checks the wrapper integration: a wrapped
// algorithm that detects a fault at one node resets the entire graph.
func TestDetectionTriggersGlobalReset(t *testing.T) {
	g, err := graph.Star(6)
	if err != nil {
		t.Fatal(err)
	}
	d := g.Diameter()
	detectOnce := true
	mod, err := restart.NewModule[counter](
		d,
		func() counter { return counter{} },
		func(self counter, _ []counter, _ *rand.Rand) (counter, bool) {
			if detectOnce && self.N == 5 {
				detectOnce = false
				return self, true
			}
			return counter{N: self.N + 1}, false
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	initial := make([]restart.State[counter], g.N())
	eng, err := asyncsim.New(g, mod.Step, initial, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Run long enough for detection (at N=5) plus a full restart cycle.
	for r := 0; r < 5+4*d+3; r++ {
		eng.Step()
	}
	// After the reset every counter restarted from 0: all values must be
	// well below 5 + rounds and equal across nodes (concurrent exit).
	first := eng.State(0)
	if first.InRestart {
		t.Fatal("still in Restart after the budget")
	}
	for v := 0; v < g.N(); v++ {
		if eng.State(v) != first {
			t.Errorf("node %d state %v differs from node 0 %v after concurrent reset",
				v, eng.State(v), first)
		}
	}
	if first.Alg.N >= 5+4*d+3 {
		t.Errorf("counter %d too large; reset did not happen", first.Alg.N)
	}
}
