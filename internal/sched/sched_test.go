package sched_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"thinunison/internal/sched"
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
	rng := rand.New(rand.NewSource(3))
	checkFair(t, sched.NewPermuted(rng), 8, 400, 16) // worst case: last of one perm, first... 2n-1
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
		sched.NewScripted(nil, false), sched.NewPermuted(rng),
	} {
		if s.Name() == "" {
			t.Errorf("%T has empty name", s)
		}
	}
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
	for _, a := range steps {
		tr.Observe(a)
	}
	if tr.Rounds() != 3 {
		t.Fatalf("Rounds = %d, want 3", tr.Rounds())
	}
	wantBoundaries := []int{0, 4, 5, 9}
	for i, want := range wantBoundaries {
		if got := tr.Boundary(i); got != want {
			t.Errorf("R(%d) = %d, want %d", i, got, want)
		}
	}
	if tr.Steps() != len(steps) {
		t.Errorf("Steps = %d, want %d", tr.Steps(), len(steps))
	}
}

// TestRoundTrackerSynchronous: under the synchronous schedule R(i) = i.
func TestRoundTrackerSynchronous(t *testing.T) {
	s := sched.NewSynchronous()
	tr := sched.NewRoundTracker(5)
	for step := 0; step < 20; step++ {
		tr.Observe(s.Activations(step, 5))
	}
	if tr.Rounds() != 20 {
		t.Errorf("Rounds = %d, want 20", tr.Rounds())
	}
	for i := 0; i <= 20; i++ {
		if tr.Boundary(i) != i {
			t.Errorf("R(%d) = %d", i, tr.Boundary(i))
		}
	}
}

// TestRoundTrackerProperty: boundaries are strictly increasing and rounds
// complete exactly when every node has been seen.
func TestRoundTrackerProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		tr := sched.NewRoundTracker(n)
		s := sched.NewRandomSubset(0.3, 8, rng)
		for step := 0; step < 300; step++ {
			tr.Observe(s.Activations(step, n))
		}
		for i := 1; i <= tr.Rounds(); i++ {
			if tr.Boundary(i) <= tr.Boundary(i-1) {
				return false
			}
		}
		return tr.Rounds() >= 300/(8*n) // with forced activation, rounds keep completing
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
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
