package mis_test

import (
	"fmt"
	"math/rand"
	"testing"

	"thinunison/internal/asyncsim"
	"thinunison/internal/graph"
	"thinunison/internal/mis"
	"thinunison/internal/restart"
)

func mustAlg(t *testing.T, d int) *mis.Alg {
	t.Helper()
	a, err := mis.New(mis.Params{D: d})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return a
}

func freshStates(a *mis.Alg, n int) []restart.State[mis.State] {
	out := make([]restart.State[mis.State], n)
	for i := range out {
		out[i] = a.Fresh()
	}
	return out
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
	g, err := graph.Path(7)
	add("path7", g, err)
	g, err = graph.Cycle(8)
	add("cycle8", g, err)
	g, err = graph.Complete(6)
	add("complete6", g, err)
	g, err = graph.Star(9)
	add("star9", g, err)
	g, err = graph.Grid(3, 4)
	add("grid3x4", g, err)
	g, err = graph.RandomConnected(12, 0.3, rng)
	add("random12", g, err)
	return out
}

// budget returns a generous Theorem 1.4 round budget for the given instance:
// c * (D + log n) * log n, padded for small n.
func budget(g *graph.Graph, d int) int {
	n := g.N()
	logn := 1
	for v := n; v > 1; v >>= 1 {
		logn++
	}
	return 300*(d+logn)*logn + 2000
}

func TestParamsValidation(t *testing.T) {
	if _, err := mis.New(mis.Params{D: 0}); err == nil {
		t.Error("D=0 should fail")
	}
	if _, err := mis.New(mis.Params{D: 1, P0: 1.5}); err == nil {
		t.Error("P0=1.5 should fail")
	}
	if _, err := mis.New(mis.Params{D: 1, K: 1}); err == nil {
		t.Error("K=1 should fail")
	}
	a := mustAlg(t, 2)
	p := a.Params()
	if p.P0 == 0 || p.K == 0 {
		t.Error("defaults not applied")
	}
}

// TestMISFromFreshStart is the Theorem 1.4 baseline: from the uniform q*0
// start (which Restart guarantees), AlgMIS computes a valid MIS and the
// output stays fixed.
func TestMISFromFreshStart(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, g := range testGraphs(t, rng) {
		for trial := 0; trial < 3; trial++ {
			t.Run(fmt.Sprintf("%s/trial%d", name, trial), func(t *testing.T) {
				d := max(1, g.Diameter())
				a := mustAlg(t, d)
				eng, err := asyncsim.New(g, a.Step, freshStates(a, g.N()), nil, int64(trial))
				if err != nil {
					t.Fatal(err)
				}
				rounds, ok := eng.RunUntil(func(e *asyncsim.Engine[restart.State[mis.State]]) bool {
					return mis.Stable(g, e.States())
				}, budget(g, d))
				if !ok {
					t.Fatalf("no stable MIS within %d rounds; IN=%v", budget(g, d), mis.InSet(eng.States()))
				}
				// Closure: the output must stay a fixed MIS.
				in0 := fmt.Sprint(mis.InSet(eng.States()))
				for r := 0; r < 200; r++ {
					eng.Step()
				}
				if !mis.Stable(g, eng.States()) {
					t.Error("MIS output destabilized")
				}
				if in1 := fmt.Sprint(mis.InSet(eng.States())); in1 != in0 {
					t.Errorf("MIS output changed after stabilization: %s -> %s", in0, in1)
				}
				t.Logf("stable MIS after %d rounds", rounds)
			})
		}
	}
}

// TestMISSelfStabilizes is the full self-stabilization test: arbitrary
// (adversarial random) initial states, including Restart positions and
// inconsistent module states.
func TestMISSelfStabilizes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for name, g := range testGraphs(t, rng) {
		t.Run(name, func(t *testing.T) {
			d := max(1, g.Diameter())
			a := mustAlg(t, d)
			for trial := 0; trial < 5; trial++ {
				initial := make([]restart.State[mis.State], g.N())
				for v := range initial {
					initial[v] = a.RandomState(rng)
				}
				eng, err := asyncsim.New(g, a.Step, initial, nil, int64(100+trial))
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := eng.RunUntil(func(e *asyncsim.Engine[restart.State[mis.State]]) bool {
					return mis.Stable(g, e.States())
				}, budget(g, d)); !ok {
					t.Fatalf("trial %d: no stable MIS within budget", trial)
				}
			}
		})
	}
}

// TestMISDetectsPlantedFaults plants the two illegal decided patterns of
// DetectMIS and checks each triggers a Restart and a correct recomputation.
func TestMISDetectsPlantedFaults(t *testing.T) {
	g, err := graph.Path(5)
	if err != nil {
		t.Fatal(err)
	}
	d := g.Diameter()
	a := mustAlg(t, d)

	mk := func(decisions ...mis.Decision) []restart.State[mis.State] {
		out := make([]restart.State[mis.State], len(decisions))
		for i, dec := range decisions {
			s := mis.State{Step: 0, Flag: true, Decision: dec, Candidate: dec == mis.Undecided}
			if dec == mis.In {
				s.TempID = 1
			}
			out[i] = restart.State[mis.State]{Alg: s}
		}
		return out
	}

	cases := map[string][]restart.State[mis.State]{
		// Two adjacent IN nodes.
		"adjacent-IN": mk(mis.In, mis.In, mis.Out, mis.In, mis.Out),
		// An OUT node with no IN neighbor.
		"uncovered-OUT": mk(mis.Out, mis.Out, mis.Out, mis.Out, mis.Out),
	}
	for name, initial := range cases {
		t.Run(name, func(t *testing.T) {
			eng, err := asyncsim.New(g, a.Step, initial, nil, 9)
			if err != nil {
				t.Fatal(err)
			}
			sawRestart := false
			for r := 0; r < budget(g, d); r++ {
				eng.Step()
				for v := 0; v < g.N(); v++ {
					if eng.State(v).InRestart {
						sawRestart = true
					}
				}
				if sawRestart && mis.Stable(g, eng.States()) {
					return // detected, reset and recomputed: success
				}
			}
			if !sawRestart {
				t.Fatal("planted fault never triggered Restart")
			}
			t.Fatal("restarted but never reached a stable MIS")
		})
	}
}

// TestMISRecoversFromMidRunCorruption injects transient faults into a
// stabilized execution and checks recovery (the self-stabilization premise).
func TestMISRecoversFromMidRunCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g, err := graph.Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := g.Diameter()
	a := mustAlg(t, d)
	eng, err := asyncsim.New(g, a.Step, freshStates(a, g.N()), nil, 17)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.RunUntil(func(e *asyncsim.Engine[restart.State[mis.State]]) bool {
		return mis.Stable(g, e.States())
	}, budget(g, d)); !ok {
		t.Fatal("initial stabilization failed")
	}
	for burst := 0; burst < 3; burst++ {
		// Corrupt a third of the nodes.
		for i := 0; i < g.N()/3+1; i++ {
			eng.SetState(rng.Intn(g.N()), a.RandomState(rng))
		}
		if _, ok := eng.RunUntil(func(e *asyncsim.Engine[restart.State[mis.State]]) bool {
			return mis.Stable(g, e.States())
		}, budget(g, d)); !ok {
			t.Fatalf("burst %d: no recovery within budget", burst)
		}
	}
}

// TestOutputHelper exercises the Output accessor.
func TestOutputHelper(t *testing.T) {
	a := mustAlg(t, 1)
	if _, ok := mis.Output(restart.State[mis.State]{InRestart: true}); ok {
		t.Error("Restart state must have no output")
	}
	if _, ok := mis.Output(a.Fresh()); ok {
		t.Error("undecided state must have no output")
	}
	inState := restart.State[mis.State]{Alg: mis.State{Decision: mis.In, TempID: 1}}
	if v, ok := mis.Output(inState); !ok || !v {
		t.Error("IN state must output true")
	}
	outState := restart.State[mis.State]{Alg: mis.State{Decision: mis.Out}}
	if v, ok := mis.Output(outState); !ok || v {
		t.Error("OUT state must output false")
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
