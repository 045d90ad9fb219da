package sched_test

import (
	"testing"

	"thinunison/internal/sched"
)

// TestRandomSubsetHonorsMaxGap drives a low-probability random-subset
// scheduler long enough that, without the force-activation rule, starvation
// would be near certain, and asserts no node ever waits more than maxGap
// steps between activations.
func TestRandomSubsetHonorsMaxGap(t *testing.T) {
	const (
		n      = 20
		maxGap = 7
		steps  = 5000
	)
	s := sched.NewRandomSubsetSeeded(0.01, maxGap, 42)
	last := make([]int, n)
	for v := range last {
		last[v] = -1
	}
	for step := 0; step < steps; step++ {
		for _, v := range s.Activations(step, n) {
			if v < 0 || v >= n {
				t.Fatalf("step %d: activation %d out of range", step, v)
			}
			last[v] = step
		}
		for v := 0; v < n; v++ {
			gap := step - last[v]
			if last[v] == -1 {
				gap = step + 1
			}
			if gap > maxGap {
				t.Fatalf("node %d starved for %d steps at step %d (maxGap %d)", v, gap, step, maxGap)
			}
		}
	}
}

// TestRandomSubsetDefaultMaxGap checks the documented maxGap<=0 fallback.
func TestRandomSubsetDefaultMaxGap(t *testing.T) {
	const n = 5
	s := sched.NewRandomSubsetSeeded(0.0, 0, 7)
	last := make([]int, n)
	for v := range last {
		last[v] = -1
	}
	for step := 0; step < 1000; step++ {
		for _, v := range s.Activations(step, n) {
			last[v] = step
		}
	}
	for v := 0; v < n; v++ {
		if 999-last[v] > 64 {
			t.Errorf("node %d starved beyond the default 64-step gap (last at %d)", v, last[v])
		}
	}
}

// TestLaggardExactlyOncePerPeriod asserts the starved node is activated
// exactly once in every period-step window — and every other node every
// step — which is the property the fault-recovery campaigns lean on.
func TestLaggardExactlyOncePerPeriod(t *testing.T) {
	const (
		n       = 6
		victim  = 2
		period  = 5
		periods = 40
	)
	s := sched.NewLaggard(victim, period)
	for p := 0; p < periods; p++ {
		victimHits := 0
		for i := 0; i < period; i++ {
			step := p*period + i
			act := s.Activations(step, n)
			seen := make(map[int]bool, len(act))
			for _, v := range act {
				seen[v] = true
			}
			if seen[victim] {
				victimHits++
			}
			for v := 0; v < n; v++ {
				if v != victim && !seen[v] {
					t.Fatalf("step %d: non-victim node %d not activated", step, v)
				}
			}
		}
		if victimHits != 1 {
			t.Fatalf("period %d: victim activated %d times, want exactly 1", p, victimHits)
		}
	}
}

// TestLaggardSingleNodeLiveness is the regression test for the n==1 liveness
// bug: when the victim is the only node and period > 1, the scheduler used to
// emit empty activation sets on period-1 of every period steps, so rounds
// never completed and round-bounded runs spun forever. Every step must
// activate the lone node.
func TestLaggardSingleNodeLiveness(t *testing.T) {
	s := sched.NewLaggard(0, 4)
	tracker := sched.NewRoundTracker(1)
	for step := 0; step < 20; step++ {
		act := s.Activations(step, 1)
		if len(act) == 0 {
			t.Fatalf("step %d: empty activation set with a single node", step)
		}
		if len(act) != 1 || act[0] != 0 {
			t.Fatalf("step %d: activations = %v, want [0]", step, act)
		}
		tracker.Observe(act)
	}
	if tracker.Rounds() != 20 {
		t.Errorf("rounds = %d, want 20 (one per step)", tracker.Rounds())
	}
}

// TestRandomSubsetGapSurvivesResize is the regression test for the
// starvation-tracking reset: re-using a scheduler with a different node count
// used to rebuild the last-activation table seeded at the current step,
// allowing a node to legally starve for up to ~2*maxGap steps across the
// boundary. Gap state must carry over, so the maxGap bound holds across the
// resize.
func TestRandomSubsetGapSurvivesResize(t *testing.T) {
	const maxGap = 4
	// p=0: nodes are only ever activated by the force rule (or the
	// non-empty-step fallback), which makes the gap bound sharp.
	s := sched.NewRandomSubsetSeeded(0, maxGap, 11)
	last := make(map[int]int)
	check := func(step, n int) {
		for _, v := range s.Activations(step, n) {
			last[v] = step
		}
		for v := 0; v < n; v++ {
			prev, seen := last[v]
			if !seen {
				continue
			}
			if gap := step - prev; gap > maxGap {
				t.Fatalf("node %d starved %d steps at step %d across resize (maxGap %d)", v, gap, step, maxGap)
			}
		}
	}
	step := 0
	for ; step < 10; step++ {
		check(step, 3)
	}
	// Grow, shrink, regrow: none of these may reset accumulated gaps.
	for ; step < 20; step++ {
		check(step, 5)
	}
	for ; step < 30; step++ {
		check(step, 3)
	}
	for ; step < 45; step++ {
		check(step, 5)
	}
}
