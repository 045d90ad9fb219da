package asyncsim_test

import (
	"math/rand"
	"slices"
	"testing"

	"thinunison/internal/asyncsim"
	"thinunison/internal/graph"
	"thinunison/internal/sched"
	"thinunison/internal/syncsim"
)

func orStep(self bool, sensed []bool, _ *rand.Rand) bool {
	return syncsim.Sensed(sensed, func(b bool) bool { return b })
}

func TestNewValidation(t *testing.T) {
	g, err := graph.Path(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := asyncsim.New(g, orStep, []bool{true}, nil, 1); err == nil {
		t.Error("wrong-length initial should fail")
	}
	disc, err := graph.New(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := asyncsim.New(disc, orStep, []bool{false, false}, nil, 1); err == nil {
		t.Error("disconnected graph should fail")
	}
}

// TestDefaultSchedulerIsSynchronous: a nil scheduler behaves as the
// synchronous one (A_t = V), step for step: OR-gossip spreads exactly one
// hop per step, matching an engine built with sched.NewSynchronous, and
// every step closes a round.
func TestDefaultSchedulerIsSynchronous(t *testing.T) {
	g, err := graph.Path(5)
	if err != nil {
		t.Fatal(err)
	}
	init := []bool{true, false, false, false, false}
	def, err := asyncsim.New(g, orStep, init, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	sync, err := asyncsim.New(g, orStep, init, sched.NewSynchronous(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		def.Step()
		sync.Step()
		for v := 0; v < g.N(); v++ {
			if def.State(v) != sync.State(v) {
				t.Fatalf("step %d node %d: nil scheduler %v != synchronous %v", i, v, def.State(v), sync.State(v))
			}
			if want := v <= i+1; def.State(v) != want {
				t.Fatalf("step %d node %d: %v, want %v", i, v, def.State(v), want)
			}
		}
	}
	if def.Rounds() != 4 || def.Steps() != 4 {
		t.Errorf("Rounds=%d Steps=%d", def.Rounds(), def.Steps())
	}
}

// TestOnlyActivatedNodesMove: under round-robin, exactly the activated node
// may change state in each step.
func TestOnlyActivatedNodesMove(t *testing.T) {
	g, err := graph.Path(4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := asyncsim.New(g, orStep, []bool{true, false, false, false}, sched.NewRoundRobin(), 1)
	if err != nil {
		t.Fatal(err)
	}
	prev := eng.States()
	for step := 0; step < 8; step++ {
		eng.Step()
		cur := eng.States()
		for v := range cur {
			if v != step%4 && cur[v] != prev[v] {
				t.Fatalf("step %d: non-activated node %d changed", step, v)
			}
		}
		prev = cur
	}
}

func TestRunUntilAndRunRounds(t *testing.T) {
	g, err := graph.Path(6)
	if err != nil {
		t.Fatal(err)
	}
	init := make([]bool, 6)
	init[0] = true
	eng, err := asyncsim.New(g, orStep, init, sched.NewRoundRobin(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rounds, ok := eng.RunUntil(func(e *asyncsim.Engine[bool]) bool { return e.State(5) }, 20)
	if !ok {
		t.Fatal("OR never reached the end of the path")
	}
	if rounds > 6 {
		t.Errorf("took %d rounds, expected at most 6", rounds)
	}
	before := eng.Rounds()
	eng.RunRounds(3)
	if eng.Rounds() != before+3 {
		t.Errorf("RunRounds advanced %d rounds", eng.Rounds()-before)
	}
	// Budget exhaustion path.
	eng.SetState(0, false)
	if _, ok := eng.RunUntil(func(e *asyncsim.Engine[bool]) bool { return false }, 2); ok {
		t.Error("impossible condition reported true")
	}
}

// TestChangedTracksActualStateChanges pins the dirty-set contract: Changed
// returns exactly the activated nodes whose state differs after the step,
// and View exposes the live configuration without copying.
func TestChangedTracksActualStateChanges(t *testing.T) {
	g, err := graph.Path(4)
	if err != nil {
		t.Fatal(err)
	}
	initial := []bool{true, false, false, false}
	eng, err := asyncsim.New(g, orStep, initial, sched.NewRoundRobin(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Step 0 activates node 0, which already holds true: nothing changes.
	eng.Step()
	if got := eng.Changed(); len(got) != 0 {
		t.Fatalf("step 0: changed = %v, want none (node 0 kept its state)", got)
	}
	// Step 1 activates node 1, which senses node 0 and flips to true.
	eng.Step()
	if got := eng.Changed(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("step 1: changed = %v, want [1]", got)
	}
	if view := eng.View(); !view[1] || view[2] || view[3] {
		t.Fatalf("view = %v, want [true true false false]", view)
	}
}

// TestUnsortedActivationsAreCanonicalized: a scheduler emitting an unsorted,
// duplicated A_t must step exactly like its canonical form — no coin drawn
// twice for one node, Changed ascending and duplicate-free — at every p.
func TestUnsortedActivationsAreCanonicalized(t *testing.T) {
	g, err := graph.Cycle(4)
	if err != nil {
		t.Fatal(err)
	}
	// Every activation draws, and node v's draw decides its next state.
	step := func(self int, _ []int, rng *rand.Rand) int { return self + 1 + rng.Intn(4) }
	for _, p := range []int{0, 1, 2} {
		var engines [2]*asyncsim.Engine[int]
		for i, script := range [][][]int{{{2, 0, 0}, {3, 1}}, {{0, 2}, {1, 3}}} {
			e, err := asyncsim.NewParallel(g, step, make([]int, g.N()), sched.NewScripted(script, true), 7, p)
			if err != nil {
				t.Fatal(err)
			}
			engines[i] = e
		}
		messy, canon := engines[0], engines[1]
		for i := 0; i < 8; i++ {
			messy.Step()
			canon.Step()
			if !slices.Equal(messy.View(), canon.View()) {
				t.Fatalf("p=%d step %d: unsorted script diverged from its canonical form: %v vs %v", p, i, messy.View(), canon.View())
			}
			if !slices.Equal(messy.Changed(), canon.Changed()) {
				t.Fatalf("p=%d step %d: Changed = %v, canonical %v", p, i, messy.Changed(), canon.Changed())
			}
		}
	}
}
