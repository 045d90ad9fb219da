package synchronizer_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"thinunison/internal/asyncsim"
	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/le"
	"thinunison/internal/mis"
	"thinunison/internal/restart"
	"thinunison/internal/sched"
	"thinunison/internal/synchronizer"
)

// orGossip is a deterministic synchronous Π: each node's bit becomes the OR
// of the sensed bits. In a synchronous execution, bit_i(v) = OR over the
// radius-i ball around v of the initial bits.
func orGossip(self bool, sensed []bool, _ *rand.Rand) bool {
	for _, b := range sensed {
		if b {
			return true
		}
	}
	return self
}

// TestLockstepSimulation verifies the synchronizer's core guarantee exactly:
// starting AlgAU from a good configuration, for every node v and pulse i,
// the Π-state of v after its i-th clock advance equals the synchronous
// execution of Π at round i.
func TestLockstepSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	graphs := map[string]*graph.Graph{}
	g, err := graph.Path(7)
	if err != nil {
		t.Fatal(err)
	}
	graphs["path7"] = g
	g, err = graph.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	graphs["cycle6"] = g
	g, err = graph.RandomConnected(10, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	graphs["random10"] = g

	for name, g := range graphs {
		for _, schName := range []string{"round-robin", "random-subset", "laggard"} {
			t.Run(fmt.Sprintf("%s/%s", name, schName), func(t *testing.T) {
				d := g.Diameter()
				sy, err := synchronizer.New[bool](d, orGossip)
				if err != nil {
					t.Fatal(err)
				}
				au := sy.AU()

				// Initial Π-configuration: one source bit.
				bits := make([]bool, g.N())
				bits[0] = true

				// Synchronous reference trajectory.
				const pulses = 12
				ref := make([][]bool, pulses+1)
				ref[0] = append([]bool(nil), bits...)
				refEng, err := asyncsim.New(g, orGossip, bits, nil, 1)
				if err != nil {
					t.Fatal(err)
				}
				for i := 1; i <= pulses; i++ {
					refEng.Step()
					ref[i] = refEng.States()
				}

				// Product execution from a good AlgAU configuration.
				initial := make([]synchronizer.State[bool], g.N())
				for v := range initial {
					st, err := sy.Initial(bits[v], core.Turn{Level: 1})
					if err != nil {
						t.Fatal(err)
					}
					initial[v] = st
				}
				var s sched.Scheduler
				switch schName {
				case "round-robin":
					s = sched.NewRoundRobin()
				case "random-subset":
					s = sched.NewRandomSubsetSeeded(0.4, 8, 4)
				case "laggard":
					s = sched.NewLaggard(1, 4)
				}
				eng, err := asyncsim.New(g, sy.Step, initial, s, 2)
				if err != nil {
					t.Fatal(err)
				}

				advances := make([]int, g.N())
				for step := 0; ; step++ {
					prev := eng.States()
					eng.Step()
					cur := eng.States()
					for v := range cur {
						if prev[v].Turn != cur[v].Turn {
							pt, ct := au.Turn(prev[v].Turn), au.Turn(cur[v].Turn)
							if pt.Faulty || ct.Faulty {
								t.Fatalf("node %d left the good regime: %v -> %v", v, pt, ct)
							}
							advances[v]++
							i := advances[v]
							if i <= pulses && cur[v].Cur != ref[i][v] {
								t.Fatalf("node %d pulse %d: simulated %v, synchronous %v",
									v, i, cur[v].Cur, ref[i][v])
							}
						}
					}
					// The globally completed pulse count.
					if slices.Min(advances) >= pulses {
						break
					}
					if step > 100000 {
						t.Fatal("liveness failure: pulses not completing")
					}
				}
			})
		}
	}
}

// TestStateSpaceSize documents the O(D·|Q|²) bound of Corollary 1.2.
func TestStateSpaceSize(t *testing.T) {
	sy, err := synchronizer.New[bool](3, orGossip)
	if err != nil {
		t.Fatal(err)
	}
	q := 7
	want := sy.AU().NumStates() * q * q
	if got := sy.StateSpaceSize(q); got != want {
		t.Errorf("StateSpaceSize(%d) = %d, want %d", q, got, want)
	}
	if _, err := synchronizer.New[bool](3, nil); err == nil {
		t.Error("nil step should fail")
	}
	if _, err := synchronizer.New[bool](0, orGossip); err == nil {
		t.Error("d=0 should fail")
	}
}

// budgetRounds is a generous asynchronous budget: AU's O(D³) plus the
// synchronous algorithm's round bound, times slack.
func budgetRounds(d, n int) int {
	logn := 1
	for v := n; v > 1; v >>= 1 {
		logn++
	}
	k := 3*d + 2
	return 60*k*k*k + 600*(d+logn)*logn + 4000
}

// TestAsynchronousMIS is the Corollary 1.2 payoff: AlgMIS — a synchronous
// algorithm — runs correctly under asynchronous adversarial schedulers when
// wrapped in the synchronizer, from arbitrary initial configurations.
func TestAsynchronousMIS(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g, err := graph.RandomConnected(10, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	d := g.Diameter()
	malg, err := mis.New(mis.Params{D: d})
	if err != nil {
		t.Fatal(err)
	}
	sy, err := synchronizer.New[restart.State[mis.State]](d, malg.Step)
	if err != nil {
		t.Fatal(err)
	}
	au := sy.AU()

	schedulers := []sched.Scheduler{
		sched.NewRoundRobin(),
		sched.NewRandomSubsetSeeded(0.5, 8, 5),
		sched.NewLaggard(2, 3),
	}
	for si, s := range schedulers {
		t.Run(s.Name(), func(t *testing.T) {
			// Adversarial product initial configuration: random Π-state,
			// random AlgAU turn.
			initial := make([]synchronizer.State[restart.State[mis.State]], g.N())
			for v := range initial {
				initial[v] = synchronizer.State[restart.State[mis.State]]{
					Cur:  malg.RandomState(rng),
					Prev: malg.RandomState(rng),
					Turn: rng.Intn(au.NumStates()),
				}
			}
			eng, err := asyncsim.New(g, sy.Step, initial, s, int64(si))
			if err != nil {
				t.Fatal(err)
			}
			stable := func(e *asyncsim.Engine[synchronizer.State[restart.State[mis.State]]]) bool {
				states := e.States()
				pi := make([]restart.State[mis.State], len(states))
				for v, st := range states {
					pi[v] = st.Cur
				}
				return mis.Stable(g, pi)
			}
			rounds, ok := eng.RunUntil(stable, budgetRounds(d, g.N()))
			if !ok {
				t.Fatalf("no stable MIS within %d rounds", budgetRounds(d, g.N()))
			}
			// Closure under continued asynchrony.
			eng.RunRounds(300)
			if !stable(eng) {
				t.Error("asynchronous MIS destabilized")
			}
			t.Logf("asynchronous MIS stable after %d rounds", rounds)
		})
	}
}

// TestAsynchronousLE: same payoff for AlgLE.
func TestAsynchronousLE(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	g, err := graph.Cycle(7)
	if err != nil {
		t.Fatal(err)
	}
	d := g.Diameter()
	lalg, err := le.New(le.Params{D: d})
	if err != nil {
		t.Fatal(err)
	}
	sy, err := synchronizer.New[restart.State[le.State]](d, lalg.Step)
	if err != nil {
		t.Fatal(err)
	}
	au := sy.AU()

	initial := make([]synchronizer.State[restart.State[le.State]], g.N())
	for v := range initial {
		initial[v] = synchronizer.State[restart.State[le.State]]{
			Cur:  lalg.RandomState(rng),
			Prev: lalg.RandomState(rng),
			Turn: rng.Intn(au.NumStates()),
		}
	}
	eng, err := asyncsim.New(g, sy.Step, initial,
		sched.NewRandomSubsetSeeded(0.5, 8, 6), 11)
	if err != nil {
		t.Fatal(err)
	}
	stable := func(e *asyncsim.Engine[synchronizer.State[restart.State[le.State]]]) bool {
		states := e.States()
		pi := make([]restart.State[le.State], len(states))
		for v, st := range states {
			pi[v] = st.Cur
		}
		return le.Stable(pi)
	}
	rounds, ok := eng.RunUntil(stable, budgetRounds(d, g.N()))
	if !ok {
		t.Fatalf("no stable leader within %d rounds", budgetRounds(d, g.N()))
	}
	eng.RunRounds(300)
	if !stable(eng) {
		t.Error("asynchronous LE destabilized")
	}
	t.Logf("asynchronous LE stable after %d rounds", rounds)
}
