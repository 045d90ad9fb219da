package le_test

import (
	"fmt"
	"math/rand"
	"testing"

	"thinunison/internal/asyncsim"
	"thinunison/internal/graph"
	"thinunison/internal/le"
	"thinunison/internal/restart"
)

func mustAlg(t *testing.T, d int) *le.Alg {
	t.Helper()
	a, err := le.New(le.Params{D: d})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return a
}

func freshStates(a *le.Alg, n int) []restart.State[le.State] {
	out := make([]restart.State[le.State], n)
	for i := range out {
		out[i] = a.Fresh()
	}
	return out
}

// budget returns a generous Theorem 1.3 round budget: c * D * log n.
func budget(g *graph.Graph, d int) int {
	n := g.N()
	logn := 1
	for v := n; v > 1; v >>= 1 {
		logn++
	}
	return 400*(d+1)*logn + 2000
}

func testGraphs(t *testing.T, rng *rand.Rand) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{}
	add := func(name string, g *graph.Graph, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out[name] = g
	}
	g, err := graph.Path(6)
	add("path6", g, err)
	g, err = graph.Cycle(7)
	add("cycle7", g, err)
	g, err = graph.Complete(8)
	add("complete8", g, err)
	g, err = graph.Star(10)
	add("star10", g, err)
	g, err = graph.RandomConnected(12, 0.25, rng)
	add("random12", g, err)
	return out
}

func TestParamsValidation(t *testing.T) {
	if _, err := le.New(le.Params{D: 0}); err == nil {
		t.Error("D=0 should fail")
	}
	if _, err := le.New(le.Params{D: 1, P0: -1}); err == nil {
		t.Error("negative P0 should fail")
	}
	if _, err := le.New(le.Params{D: 1, K: 1}); err == nil {
		t.Error("K=1 should fail")
	}
}

// TestLEFromFreshStart: from the uniform start, AlgLE elects exactly one
// leader and the output stays fixed (Theorem 1.3 baseline).
func TestLEFromFreshStart(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, g := range testGraphs(t, rng) {
		for trial := 0; trial < 3; trial++ {
			t.Run(fmt.Sprintf("%s/trial%d", name, trial), func(t *testing.T) {
				d := maxInt(1, g.Diameter())
				a := mustAlg(t, d)
				eng, err := asyncsim.New(g, a.Step, freshStates(a, g.N()), nil, int64(trial*7+1))
				if err != nil {
					t.Fatal(err)
				}
				rounds, ok := eng.RunUntil(func(e *asyncsim.Engine[restart.State[le.State]]) bool {
					return le.Stable(e.States())
				}, budget(g, d))
				if !ok {
					t.Fatalf("no stable single leader within %d rounds; leaders=%v",
						budget(g, d), le.Leaders(eng.States()))
				}
				leader := le.Leaders(eng.States())
				// Closure: same single leader, forever (run several epochs).
				for r := 0; r < 50*(d+1); r++ {
					eng.Step()
				}
				if !le.Stable(eng.States()) {
					t.Fatal("leader election destabilized")
				}
				if after := le.Leaders(eng.States()); len(after) != 1 || after[0] != leader[0] {
					t.Errorf("leader changed: %v -> %v", leader, after)
				}
				t.Logf("single leader %v after %d rounds", leader, rounds)
			})
		}
	}
}

// TestLESelfStabilizes: arbitrary adversarial initial states.
func TestLESelfStabilizes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for name, g := range testGraphs(t, rng) {
		t.Run(name, func(t *testing.T) {
			d := maxInt(1, g.Diameter())
			a := mustAlg(t, d)
			for trial := 0; trial < 5; trial++ {
				initial := make([]restart.State[le.State], g.N())
				for v := range initial {
					initial[v] = a.RandomState(rng)
				}
				eng, err := asyncsim.New(g, a.Step, initial, nil, int64(trial+50))
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := eng.RunUntil(func(e *asyncsim.Engine[restart.State[le.State]]) bool {
					return le.Stable(e.States())
				}, budget(g, d)); !ok {
					t.Fatalf("trial %d: no stable leader within budget; leaders=%v",
						trial, le.Leaders(eng.States()))
				}
			}
		})
	}
}

// TestLEDetectsZeroLeaders plants a consistent verification-stage
// configuration with no leader; DetectLE must detect it deterministically
// within one epoch and re-elect.
func TestLEDetectsZeroLeaders(t *testing.T) {
	g, err := graph.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	d := g.Diameter()
	a := mustAlg(t, d)
	initial := make([]restart.State[le.State], g.N())
	for v := range initial {
		initial[v] = restart.State[le.State]{Alg: le.State{Stage: le.Verify, Round: 0}}
	}
	eng, err := asyncsim.New(g, a.Step, initial, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Detection must occur by the end of the first full epoch.
	sawRestart := false
	for r := 0; r < 3*(d+2) && !sawRestart; r++ {
		eng.Step()
		for v := 0; v < g.N(); v++ {
			if eng.State(v).InRestart {
				sawRestart = true
			}
		}
	}
	if !sawRestart {
		t.Fatal("zero-leader configuration not detected within an epoch")
	}
	if _, ok := eng.RunUntil(func(e *asyncsim.Engine[restart.State[le.State]]) bool {
		return le.Stable(e.States())
	}, budget(g, d)); !ok {
		t.Fatal("no re-election after detection")
	}
}

// TestLEDetectsTwoLeaders plants two leaders; DetectLE must detect whp and
// converge back to exactly one.
func TestLEDetectsTwoLeaders(t *testing.T) {
	g, err := graph.Path(5)
	if err != nil {
		t.Fatal(err)
	}
	d := g.Diameter()
	a := mustAlg(t, d)
	initial := make([]restart.State[le.State], g.N())
	for v := range initial {
		initial[v] = restart.State[le.State]{Alg: le.State{Stage: le.Verify, Round: 0}}
	}
	initial[0].Alg.Leader = true
	initial[4].Alg.Leader = true
	eng, err := asyncsim.New(g, a.Step, initial, nil, 21)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.RunUntil(func(e *asyncsim.Engine[restart.State[le.State]]) bool {
		return le.Stable(e.States())
	}, budget(g, d)); !ok {
		t.Fatalf("two-leader configuration not corrected; leaders=%v", le.Leaders(eng.States()))
	}
}

// TestLERecoversFromMidRunCorruption injects bursts of transient faults.
func TestLERecoversFromMidRunCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	g, err := graph.Complete(7)
	if err != nil {
		t.Fatal(err)
	}
	d := maxInt(1, g.Diameter())
	a := mustAlg(t, d)
	eng, err := asyncsim.New(g, a.Step, freshStates(a, g.N()), nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.RunUntil(func(e *asyncsim.Engine[restart.State[le.State]]) bool {
		return le.Stable(e.States())
	}, budget(g, d)); !ok {
		t.Fatal("initial stabilization failed")
	}
	for burst := 0; burst < 3; burst++ {
		for i := 0; i < 3; i++ {
			eng.SetState(rng.Intn(g.N()), a.RandomState(rng))
		}
		if _, ok := eng.RunUntil(func(e *asyncsim.Engine[restart.State[le.State]]) bool {
			return le.Stable(e.States())
		}, budget(g, d)); !ok {
			t.Fatalf("burst %d: no recovery", burst)
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
