package syncsim_test

// These tests pin the synchronous schedule of the program model — one hop
// per round, set-broadcast sensing, steps == rounds — on asyncsim.Engine
// with its nil (synchronous) scheduler, the engine every program runs on.

import (
	"math/rand"
	"testing"

	"thinunison/internal/asyncsim"
	"thinunison/internal/graph"
	"thinunison/internal/syncsim"
)

func orStep(self bool, sensed []bool, _ *rand.Rand) bool {
	return syncsim.Sensed(sensed, func(b bool) bool { return b })
}

// TestNewValidation: a synchronous engine refuses a wrong-length initial
// configuration and a disconnected graph, single-lane and sharded alike.
func TestNewValidation(t *testing.T) {
	g, err := graph.Path(3)
	if err != nil {
		t.Fatal(err)
	}
	disc, err := graph.New(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 2} {
		if _, err := asyncsim.NewParallel(g, orStep, []bool{true}, nil, 1, p); err == nil {
			t.Errorf("p=%d: wrong-length initial should fail", p)
		}
		if _, err := asyncsim.NewParallel(disc, orStep, []bool{false, false}, nil, 1, p); err == nil {
			t.Errorf("p=%d: disconnected graph should fail", p)
		}
	}
}

// TestSynchronousSemantics: OR-gossip spreads exactly one hop per round.
func TestSynchronousSemantics(t *testing.T) {
	g, err := graph.Path(5)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := asyncsim.New(g, orStep, []bool{true, false, false, false, false}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 4; round++ {
		eng.Step()
		for v := 0; v < 5; v++ {
			want := v <= round
			if got := eng.State(v); got != want {
				t.Fatalf("round %d node %d: %v, want %v", round, v, got, want)
			}
		}
	}
	if eng.Rounds() != 4 {
		t.Errorf("Rounds = %d", eng.Rounds())
	}
	if eng.Graph() != g {
		t.Error("Graph accessor broken")
	}
}

// TestSetSemanticsDeduplication records the sensed set size to verify set
// semantics: a node with many same-state neighbors senses one state.
func TestSetSemanticsDeduplication(t *testing.T) {
	g, err := graph.Star(6) // center 0 with 5 identical leaves
	if err != nil {
		t.Fatal(err)
	}
	var observed int
	step := func(self int, sensed []int, _ *rand.Rand) int {
		if self == 99 { // center marker
			observed = len(sensed)
		}
		return self
	}
	initial := []int{99, 7, 7, 7, 7, 7}
	eng, err := asyncsim.New(g, step, initial, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng.Step()
	if observed != 2 { // {99, 7}: five leaves dedupe into one sensed state
		t.Errorf("center sensed %d states, want 2 (set-broadcast semantics)", observed)
	}
}

func TestRunUntilAndSetState(t *testing.T) {
	g, err := graph.Cycle(4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := asyncsim.New(g, orStep, []bool{false, false, false, false}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.RunUntil(func(e *asyncsim.Engine[bool]) bool { return e.State(2) }, 5); ok {
		t.Error("all-false OR should never turn true")
	}
	eng.SetState(0, true)
	r, ok := eng.RunUntil(func(e *asyncsim.Engine[bool]) bool { return e.State(2) }, 5)
	if !ok || r != 2 {
		t.Errorf("RunUntil = (%d, %v), want (2, true)", r, ok)
	}
	states := eng.States()
	states[0] = false
	if !eng.State(0) {
		t.Error("States() must be a copy")
	}
}

func TestMinSensed(t *testing.T) {
	sensed := []int{5, 2, 9}
	if got := syncsim.MinSensed(sensed, func(v int) int { return v }); got != 2 {
		t.Errorf("MinSensed = %d, want 2", got)
	}
	if got := syncsim.MinSensed([]int{7}, func(v int) int { return -v }); got != -7 {
		t.Errorf("MinSensed singleton = %d", got)
	}
}

// TestDeterminism: identical seeds, identical runs (randomized step).
func TestDeterminism(t *testing.T) {
	g, err := graph.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	coin := func(self int, _ []int, rng *rand.Rand) int { return rng.Intn(100) }
	mk := func() *asyncsim.Engine[int] {
		e, err := asyncsim.New(g, coin, make([]int, 5), nil, 99)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := mk(), mk()
	for i := 0; i < 20; i++ {
		a.Step()
		b.Step()
	}
	for v := 0; v < 5; v++ {
		if a.State(v) != b.State(v) {
			t.Fatal("identical seeds diverged")
		}
	}
}

// TestInjectFaultsDeterministic pins the partial-Fisher–Yates sampler: equal
// seeds corrupt identical node sets to identical states across bursts.
func TestInjectFaultsDeterministic(t *testing.T) {
	g, err := graph.Cycle(10)
	if err != nil {
		t.Fatal(err)
	}
	step := func(self int, _ []int, _ *rand.Rand) int { return self }
	random := func(rng *rand.Rand) int { return rng.Intn(5) }
	mk := func() *asyncsim.Engine[int] {
		e, err := asyncsim.New(g, step, make([]int, g.N()), nil, 13)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := mk(), mk()
	for burst := 0; burst < 4; burst++ {
		ha := append([]int(nil), a.InjectFaults(3, random)...)
		hb := append([]int(nil), b.InjectFaults(3, random)...)
		if len(ha) != 3 {
			t.Fatalf("burst %d: hit %d nodes, want 3", burst, len(ha))
		}
		for i := range ha {
			if ha[i] != hb[i] {
				t.Fatalf("burst %d: corrupted sets differ: %v vs %v", burst, ha, hb)
			}
		}
		for v := 0; v < g.N(); v++ {
			if a.State(v) != b.State(v) {
				t.Fatalf("burst %d: states diverged at node %d", burst, v)
			}
		}
	}
}

// TestStepsMatchesRounds pins the synchronous steps == rounds identity the
// campaign task driver's round budgets rely on.
func TestStepsMatchesRounds(t *testing.T) {
	g, err := graph.Path(4)
	if err != nil {
		t.Fatal(err)
	}
	step := func(self int, _ []int, _ *rand.Rand) int { return self }
	eng, err := asyncsim.New(g, step, make([]int, g.N()), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		eng.Step()
	}
	if eng.Steps() != eng.Rounds() || eng.Steps() != 5 {
		t.Errorf("Steps() = %d, Rounds() = %d, want both 5", eng.Steps(), eng.Rounds())
	}
}
