package sim

import (
	"math/rand"
	"testing"

	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/sa"
	"thinunison/internal/sched"
)

// FrontierLen returns the number of unsettled nodes of a frontier-sparse
// engine, or -1 when frontier mode is inactive (Options.Frontier unset, or
// an algorithm without the sa.SelfLooper capability). The package's
// external tests read it.
func (e *Engine) FrontierLen() int {
	if e.fr == nil {
		return -1
	}
	return e.fr.set.Len()
}

// TestFrontierSettledOracle is the settled-flag property test: after every
// step, the engine's frontier must exactly match a brute-force oracle that
// re-derives the settled set from first principles —
//
//   - a node leaves the oracle set when it was activated and its
//     (state, signal) pair classified as a deterministic self-loop, and
//   - it re-enters when its own state or any neighbor's state changed
//     ("signal changed since last eval"), including via fault injection.
//
// On top of the exact match, every settled node is re-certified against the
// algorithm directly: applying δ to its current signal must keep its state.
func TestFrontierSettledOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g, err := graph.BoundedDiameter(48, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	au, err := core.NewAU(3)
	if err != nil {
		t.Fatal(err)
	}
	for sname, mk := range map[string]func() sched.Scheduler{
		"synchronous":   func() sched.Scheduler { return sched.NewSynchronous() },
		"laggard":       func() sched.Scheduler { return sched.NewLaggard(1, 3) },
		"round-robin":   func() sched.Scheduler { return sched.NewRoundRobin() },
		"random-subset": func() sched.Scheduler { return sched.NewRandomSubset(0.5, 8, rand.New(rand.NewSource(8))) },
	} {
		// The oracle needs each step's A_t without perturbing the engine's
		// (possibly stateful) scheduler, so it drives a mirror instance built
		// from the same seed in lockstep.
		mirror := mk()
		e, err := New(g, au, Options{Scheduler: mk(), Seed: 13, Frontier: true})
		if err != nil {
			t.Fatal(err)
		}
		if e.fr == nil {
			t.Fatal("frontier runtime not armed")
		}
		n := g.N()
		settledOracle := make([]bool, n) // all dirty initially
		prev := e.Config().Clone()
		sig := sa.NewSignal(au.NumStates())
		for step := 0; step < 150; step++ {
			if step == 75 {
				for _, v := range e.InjectFaults(5) {
					settledOracle[v] = false
					for _, u := range g.Neighbors(v) {
						settledOracle[u] = false
					}
				}
				prev = e.Config().Clone()
			}
			evaluated := oracleEvaluated(mirror, e.step, g.N(), settledOracle)
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
			cfg := e.Config()
			// Oracle update: certifications first, then invalidations (an
			// invalidation always wins over a same-step certification).
			for _, v := range evaluated {
				if cfg[v] == prev[v] {
					e.SignalOf(v, &sig) // post-step signal; recheck below uses it too
					// Certification is against the pre-step signal, but for a
					// no-op node whose neighborhood did not change they agree;
					// nodes whose neighborhood changed are re-dirtied below.
					typ, _ := au.Classify(cfg[v], sig)
					if typ == core.None {
						settledOracle[v] = true
					}
				}
			}
			for v := 0; v < n; v++ {
				if cfg[v] != prev[v] {
					settledOracle[v] = false
					for _, u := range g.Neighbors(v) {
						settledOracle[u] = false
					}
				}
			}
			copy(prev, cfg)

			for v := 0; v < n; v++ {
				if e.fr.set.Contains(v) == settledOracle[v] {
					t.Fatalf("%s step %d node %d: frontier bit %v but oracle settled %v",
						sname, step, v, e.fr.set.Contains(v), settledOracle[v])
				}
				if settledOracle[v] {
					e.SignalOf(v, &sig)
					if next := au.Transition(cfg[v], sig, nil); next != cfg[v] {
						t.Fatalf("%s step %d: settled node %d would transition %d -> %d",
							sname, step, v, cfg[v], next)
					}
				}
			}
		}
	}
}

// oracleEvaluated reproduces the evaluation set of the upcoming step: the
// mirror scheduler's A_t (canonicalized) intersected with the complement of
// the oracle's settled flags.
func oracleEvaluated(mirror sched.Scheduler, t, n int, settled []bool) []int {
	var buf []int
	acts := sched.Canonical(mirror.Activations(t, n), &buf)
	var out []int
	for _, v := range acts {
		if !settled[v] {
			out = append(out, v)
		}
	}
	return out
}
