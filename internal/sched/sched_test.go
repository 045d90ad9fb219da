package sched_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"thinunison/internal/sched"
	"thinunison/internal/snapshot"
)

// checkFair runs a scheduler for steps steps over n nodes and verifies every
// node is activated at least once in every window of maxGap steps.
func checkFair(t *testing.T, s sched.Scheduler, n, steps, maxGap int) {
	t.Helper()
	last := make([]int, n)
	for v := range last {
		last[v] = -1
	}
	for step := 0; step < steps; step++ {
		for _, v := range s.Activations(step, n) {
			if v < 0 || v >= n {
				t.Fatalf("%s: activation %d out of range", s.Name(), v)
			}
			last[v] = step
		}
		for v := 0; v < n; v++ {
			gap := step - last[v]
			if last[v] == -1 {
				gap = step + 1
			}
			if gap > maxGap {
				t.Fatalf("%s: node %d starved for %d steps at step %d", s.Name(), v, gap, step)
			}
		}
	}
}

func TestSynchronousFair(t *testing.T) {
	checkFair(t, sched.NewSynchronous(), 7, 100, 1)
}

func TestRoundRobinFair(t *testing.T) {
	checkFair(t, sched.NewRoundRobin(), 7, 200, 7)
}

func TestRandomSubsetFair(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	checkFair(t, sched.NewRandomSubset(0.2, 10, rng), 9, 500, 11)
}

func TestRandomSubsetNeverEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := sched.NewRandomSubset(0.0, 0, rng) // p=0: only forced activations
	for step := 0; step < 100; step++ {
		if len(s.Activations(step, 5)) == 0 {
			t.Fatal("empty activation set")
		}
	}
}

func TestLaggardFair(t *testing.T) {
	s := sched.NewLaggard(3, 5)
	checkFair(t, s, 6, 300, 5)
	// The victim must be activated exactly once per period.
	victimCount := 0
	for step := 0; step < 50; step++ {
		for _, v := range s.Activations(step, 6) {
			if v == 3 {
				victimCount++
			}
		}
	}
	if victimCount != 10 {
		t.Errorf("victim activated %d times in 50 steps with period 5, want 10", victimCount)
	}
}

func TestPermutedFair(t *testing.T) {
	checkFair(t, sched.NewPermutedSeeded(3), 8, 400, 16) // worst case: last of one perm, first... 2n-1
}

func TestScriptedReplayAndFallback(t *testing.T) {
	script := [][]int{{0}, {2}, {1}}
	s := sched.NewScripted(script, false)
	for i, want := range []int{0, 2, 1} {
		got := s.Activations(i, 3)
		if len(got) != 1 || got[0] != want {
			t.Errorf("step %d: got %v, want [%d]", i, got, want)
		}
	}
	// After the script: synchronous fallback.
	if got := s.Activations(3, 3); len(got) != 3 {
		t.Errorf("fallback should activate all: %v", got)
	}
	// Looping variant.
	l := sched.NewScripted(script, true)
	if got := l.Activations(4, 3); len(got) != 1 || got[0] != 2 {
		t.Errorf("loop step 4: got %v, want [2]", got)
	}
	// Empty script: synchronous.
	e := sched.NewScripted(nil, true)
	if got := e.Activations(0, 4); len(got) != 4 {
		t.Errorf("empty script: got %v", got)
	}
}

func TestSchedulerNames(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, s := range []sched.Scheduler{
		sched.NewSynchronous(), sched.NewRoundRobin(),
		sched.NewRandomSubset(0.5, 8, rng), sched.NewLaggard(0, 2),
		sched.NewScripted(nil, false), sched.NewPermutedSeeded(4),
	} {
		if s.Name() == "" {
			t.Errorf("%T has empty name", s)
		}
	}
}

// boundaries feeds tr one activation set per step and records the round
// boundaries R(0) = 0 < R(1) < ... as the steps at which Rounds grows,
// failing if a step closes more than one round.
func boundaries(t *testing.T, tr *sched.RoundTracker, steps int, activations func(step int) []int) []int {
	t.Helper()
	out := []int{0}
	for step := 0; step < steps; step++ {
		tr.Observe(activations(step))
		switch tr.Rounds() - (len(out) - 1) {
		case 0:
		case 1:
			out = append(out, step+1)
		default:
			t.Fatalf("step %d closed %d rounds", step, tr.Rounds()-(len(out)-1))
		}
	}
	return out
}

// TestRoundTracker checks the round operator against hand-computed
// boundaries.
func TestRoundTracker(t *testing.T) {
	tr := sched.NewRoundTracker(3)
	steps := [][]int{
		{0},       // pending {1,2}
		{1},       // pending {2}
		{0},       // pending {2}
		{2},       // round 1 completes at step 4
		{0, 1, 2}, // round 2 completes at step 5
		{2}, {2}, {0},
		{1}, // round 3 completes at step 9
	}
	got := boundaries(t, tr, len(steps), func(step int) []int { return steps[step] })
	if want := []int{0, 4, 5, 9}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("boundaries %v, want %v", got, want)
	}
}

// TestRoundTrackerSynchronous: under the synchronous schedule R(i) = i.
func TestRoundTrackerSynchronous(t *testing.T) {
	s := sched.NewSynchronous()
	got := boundaries(t, sched.NewRoundTracker(5), 20, func(step int) []int { return s.Activations(step, 5) })
	for i, b := range got {
		if b != i {
			t.Errorf("R(%d) = %d", i, b)
		}
	}
	if len(got) != 21 {
		t.Errorf("%d rounds, want 20", len(got)-1)
	}
}

// TestRoundTrackerProperty: a round closes exactly at the step by which
// every node has been activated since the previous boundary.
func TestRoundTrackerProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		s := sched.NewRandomSubset(0.3, 8, rng)
		var acts [][]int
		got := boundaries(t, sched.NewRoundTracker(n), 300, func(step int) []int {
			a := append([]int(nil), s.Activations(step, n)...)
			acts = append(acts, a)
			return a
		})
		want := []int{0}
		seen := map[int]bool{}
		for step, a := range acts {
			for _, v := range a {
				seen[v] = true
			}
			if len(seen) == n {
				want = append(want, step+1)
				seen = map[int]bool{}
			}
		}
		return fmt.Sprint(got) == fmt.Sprint(want) && len(got)-1 >= 300/(8*n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSchedulerRestoreAtEveryStep checkpoints each seeded scheduler after
// every step of a long run and restores the payload into a fresh instance:
// every reachable state must restore, with the step, and continue the
// saved activation sequence. For RandomSubset that pins the invariant its
// restore enforces — after step t, each node's last activation lies in
// [t - maxGap, t).
func TestSchedulerRestoreAtEveryStep(t *testing.T) {
	cases := []struct {
		name string
		n    int
		mk   func() sched.Scheduler
	}{
		{"random-subset(0.1,6)", 12, func() sched.Scheduler { return sched.NewRandomSubsetSeeded(0.1, 6, 5) }},
		{"random-subset(0.4,16)", 40, func() sched.Scheduler { return sched.NewRandomSubsetSeeded(0.4, 16, 9) }},
		{"random-subset(0.01,3)", 7, func() sched.Scheduler { return sched.NewRandomSubsetSeeded(0.01, 3, 2) }},
		{"random-subset(0.9,1)", 5, func() sched.Scheduler { return sched.NewRandomSubsetSeeded(0.9, 1, 3) }},
		{"permuted", 9, func() sched.Scheduler { return sched.NewPermutedSeeded(4) }},
	}
	for _, c := range cases {
		s := c.mk()
		for step := 0; step < 2000; step++ {
			data, err := s.(sched.Checkpointer).CheckpointState()
			if err != nil {
				t.Fatal(err)
			}
			r := c.mk()
			if err := r.(sched.Checkpointer).RestoreState(data, c.n, step); err != nil {
				t.Fatalf("%s: state after %d steps rejected: %v", c.name, step, err)
			}
			want := fmt.Sprint(s.Activations(step, c.n))
			if got := fmt.Sprint(r.Activations(step, c.n)); got != want {
				t.Fatalf("%s: restored after %d steps activates %s, saved run %s", c.name, step, got, want)
			}
		}
	}
}

// TestCanonical pins the activation-set canonicalization both engines step:
// canonical lists pass through without a copy, anything else is sorted and
// deduplicated into the buffer.
func TestCanonical(t *testing.T) {
	var buf []int
	in := []int{0, 2, 5}
	if got := sched.Canonical(in, &buf); &got[0] != &in[0] {
		t.Errorf("canonical list %v was copied", in)
	}
	for _, c := range []struct{ in, want []int }{
		{[]int{2, 0, 0}, []int{0, 2}},
		{[]int{3, 1}, []int{1, 3}},
		{[]int{4, 4, 4}, []int{4}},
		{[]int{1, 1, 2}, []int{1, 2}},
	} {
		got := sched.Canonical(c.in, &buf)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("Canonical(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestRoundTrackerRestore checkpoints a tracker after every step of a mixed
// Observe / ObserveAllBut / ObserveFull stream (so rounds stretch over
// several steps and often end pinned on one pending node), restores each
// payload with its step and replays the next 30 steps on it: the restored
// round counts must match the uninterrupted run's. Edited payloads that no
// run reaches must fail to restore.
func TestRoundTrackerRestore(t *testing.T) {
	const n, steps, replay = 5, 1500, 30
	rng := rand.New(rand.NewSource(71))
	type op struct {
		kind, victim int
		subset       []int
	}
	ops := make([]op, steps+replay)
	for i := range ops {
		o := op{kind: rng.Intn(4), victim: rng.Intn(n)}
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				o.subset = append(o.subset, v)
			}
		}
		if len(o.subset) == 0 {
			o.subset = []int{o.victim}
		}
		ops[i] = o
	}
	apply := func(tr *sched.RoundTracker, o op) {
		switch o.kind {
		case 0:
			tr.ObserveFull()
		case 1:
			tr.ObserveAllBut(o.victim)
		default:
			tr.Observe(o.subset)
		}
	}

	tr := sched.NewRoundTracker(n)
	rounds := make([]int, len(ops)+1)
	states := make([][]byte, steps)
	for i, o := range ops {
		if i < steps {
			states[i] = tr.CheckpointState()
		}
		apply(tr, o)
		rounds[i+1] = tr.Rounds()
	}
	for step, data := range states {
		r, err := sched.RestoreRoundTracker(n, step, data)
		if err != nil {
			t.Fatalf("state after %d steps rejected: %v", step, err)
		}
		if r.Rounds() != rounds[step] {
			t.Fatalf("restored after %d steps at round %d, run was at %d", step, r.Rounds(), rounds[step])
		}
		for i := step; i < step+replay; i++ {
			apply(r, ops[i])
			if r.Rounds() != rounds[i+1] {
				t.Fatalf("restored after %d steps: %d rounds after step %d, run had %d", step, r.Rounds(), i+1, rounds[i+1])
			}
		}
	}

	payload := func(rounds, pending int, stamps ...int) []byte {
		var e snapshot.Enc
		e.Int(rounds)
		e.Int(pending)
		e.Ints(stamps)
		return e.Bytes()
	}
	if _, err := sched.RestoreRoundTracker(3, 3, payload(1, 2, 1, 0, 0)); err != nil {
		t.Fatalf("hand-built payload rejected: %v", err)
	}
	for _, c := range []struct {
		name string
		step int
		data []byte
	}{
		{"more rounds than steps", 3, payload(4, -1, 0, 0, 0)},
		{"negative rounds", 3, payload(-1, -1, 0, 0, 0)},
		{"stamp 2", 3, payload(1, -1, 0, 2, 0)},
		{"stamps for n-1 nodes", 3, payload(1, -1, 0, 0)},
		{"pending node n", 3, payload(1, 3, 0, 0, 0)},
		{"pending below -1", 3, payload(1, -2, 0, 0, 0)},
		{"pending node stamped", 3, payload(1, 1, 0, 1, 0)},
		{"open round with every node stamped", 3, payload(1, -1, 1, 1, 1)},
		{"activations before the first step", 0, payload(0, -1, 1, 0, 0)},
	} {
		if _, err := sched.RestoreRoundTracker(3, c.step, c.data); err == nil {
			t.Errorf("%s: restored without error", c.name)
		}
	}
}
