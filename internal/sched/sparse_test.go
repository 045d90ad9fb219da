package sched_test

import (
	"math/rand"
	"testing"

	"thinunison/internal/frontier"
	"thinunison/internal/sched"
)

// mirrorTrackers drives a reference tracker with the dense activation list
// and a second tracker with the O(1) summary path, asserting they agree on
// the round count after every step (so every boundary R(i) agrees too).
func mirrorTrackers(t *testing.T, n, steps int, dense func(step int) []int, sparse func(tr *sched.RoundTracker, step int)) {
	t.Helper()
	ref := sched.NewRoundTracker(n)
	fast := sched.NewRoundTracker(n)
	for step := 0; step < steps; step++ {
		ref.Observe(dense(step))
		sparse(fast, step)
		if ref.Rounds() != fast.Rounds() {
			t.Fatalf("step %d: fast path diverged: rounds %d vs %d", step, ref.Rounds(), fast.Rounds())
		}
	}
}

// TestObserveFullMatchesObserve: ObserveFull must equal Observe(V), also
// when a round is partially complete or pinned on a single pending node.
func TestObserveFullMatchesObserve(t *testing.T) {
	const n = 6
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	rng := rand.New(rand.NewSource(4))
	// A mixed schedule: random subsets, full steps, and all-but-one steps.
	kinds := make([]int, 400)
	victims := make([]int, 400)
	for i := range kinds {
		kinds[i] = rng.Intn(3)
		victims[i] = rng.Intn(n)
	}
	subset := func(step int) []int {
		r := rand.New(rand.NewSource(int64(step)))
		var out []int
		for v := 0; v < n; v++ {
			if r.Intn(3) == 0 {
				out = append(out, v)
			}
		}
		return out
	}
	dense := func(step int) []int {
		switch kinds[step] {
		case 0:
			return all
		case 1:
			var out []int
			for v := 0; v < n; v++ {
				if v != victims[step] {
					out = append(out, v)
				}
			}
			return out
		default:
			return subset(step)
		}
	}
	mirrorTrackers(t, n, len(kinds), dense, func(tr *sched.RoundTracker, step int) {
		switch kinds[step] {
		case 0:
			tr.ObserveFull()
		case 1:
			tr.ObserveAllBut(victims[step])
		default:
			tr.Observe(subset(step))
		}
	})
}

// TestSparseActivations checks the three SparseActivator fast paths against
// the dense Activations of a twin scheduler instance: eval must be exactly
// A_t ∩ frontier (ascending) and the coverage summary must describe A_t.
func TestSparseActivations(t *testing.T) {
	const n = 9
	fr := frontier.New(n)
	for _, v := range []int{0, 3, 4, 8} {
		fr.Add(v)
	}
	inFrontier := map[int]bool{0: true, 3: true, 4: true, 8: true}

	check := func(t *testing.T, name string, mk func() sched.Scheduler, steps int) {
		t.Helper()
		denseS := mk()
		sp, ok := mk().(sched.SparseActivator)
		if !ok {
			t.Fatalf("%s does not implement SparseActivator", name)
		}
		for step := 0; step < steps; step++ {
			want := map[int]bool{}
			dense := denseS.Activations(step, n)
			for _, v := range dense {
				if inFrontier[v] {
					want[v] = true
				}
			}
			eval, cov := sp.SparseActivations(step, n, fr)
			if len(eval) != len(want) {
				t.Fatalf("%s step %d: eval %v, want the frontier slice of %v", name, step, eval, dense)
			}
			for i, v := range eval {
				if !want[v] {
					t.Fatalf("%s step %d: eval contains %d outside A_t ∩ frontier", name, step, v)
				}
				if i > 0 && eval[i-1] >= v {
					t.Fatalf("%s step %d: eval not ascending: %v", name, step, eval)
				}
			}
			// Reconstruct A_t from the coverage summary.
			var got []int
			switch {
			case cov.Full:
				for v := 0; v < n; v++ {
					got = append(got, v)
				}
			case cov.AllBut >= 0:
				for v := 0; v < n; v++ {
					if v != cov.AllBut {
						got = append(got, v)
					}
				}
			default:
				got = append(got, cov.List...)
			}
			if len(got) != len(dense) {
				t.Fatalf("%s step %d: coverage %v describes %v, dense A_t %v", name, step, cov, got, dense)
			}
			for i := range got {
				if got[i] != dense[i] {
					t.Fatalf("%s step %d: coverage mismatch: %v vs %v", name, step, got, dense)
				}
			}
		}
	}

	check(t, "synchronous", func() sched.Scheduler { return sched.NewSynchronous() }, 5)
	check(t, "round-robin", func() sched.Scheduler { return sched.NewRoundRobin() }, 3*n)
	check(t, "laggard", func() sched.Scheduler { return sched.NewLaggard(4, 3) }, 4*3)
}
