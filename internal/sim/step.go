package sim

import (
	"fmt"

	"thinunison/internal/failpoint"
	"thinunison/internal/sa"
	"thinunison/internal/sched"
)

// This file is the engine's single step loop. Every execution mode — dense
// or frontier-sparse, scalar or word-parallel — runs the same three phases,
// differing only in its plugs:
//
//   - activation source (activate): A_t canonicalized (sched.Canonical), or
//     A_t ∩ frontier;
//   - evaluator (stage): the scalar δ, drawing its coins from the engine's
//     rng in ascending node order, or the word kernel.
//
// Staging reads only C_t; the apply phase then writes C_{t+1}, so the
// paper's simultaneous-update semantics hold by construction.

// Step executes one step: it queries the scheduler for A_t, computes the
// signal of each evaluated node under C_t, applies δ simultaneously, and
// advances to C_{t+1}. The step's counters are published into the metric
// set before Step returns.
//
// The hot path is allocation-free: new states are staged in reusable scratch
// (no O(n) configuration copy per step) and written back only after every
// evaluated node has read C_t.
func (e *Engine) Step() error {
	err := e.advance()
	e.publish()
	return err
}

// advance is Step without the closing publish: the run loops call it and
// publish only when the tally is due (obs.Tally.Due) and on return.
func (e *Engine) advance() error {
	if failpoint.Armed() {
		if err := e.evalFailpoints(); err != nil {
			return err
		}
	}
	if e.churn != nil {
		// Step-boundary churn: mutate the topology before this step's
		// activation set is drawn, so the step runs on the new graph.
		if err := e.applyChurn(); err != nil {
			return fmt.Errorf("sim: churn at step %d: %w", e.step, err)
		}
	}
	// The goodness plane certifies only a step that re-evaluated every node
	// whose bit may be stale: all n when dense, the whole frontier (counted
	// before this step's settle-clears) when sparse — settled nodes' bits are
	// valid by the frontier invariant.
	refresh := 0
	if e.wr != nil {
		refresh = e.g.N()
		if e.fr != nil {
			refresh = e.fr.set.Len()
		}
	}
	eval := e.activate()
	e.stepChg = 0
	// A step with nothing to evaluate has nothing to stage or apply (most
	// round-robin steps on a settling frontier).
	if len(eval) > 0 {
		e.stage(eval)
		certified := e.wr != nil && len(eval) == refresh && e.wr.planeAllOnes()
		e.stepChg = e.apply(eval, certified)
	}
	e.step++
	if err := e.tallyStep(); err != nil {
		return err
	}
	for _, h := range e.hooks {
		if err := h(e); err != nil {
			return fmt.Errorf("sim: hook at step %d: %w", e.step, err)
		}
	}
	return nil
}

// activate draws A_t, feeds the round tracker, records the step's
// activation/evaluation tallies, and returns the evaluation list: A_t itself
// when dense, A_t ∩ frontier when sparse — via the scheduler's
// SparseActivator fast path when it has one (round tracking then counts A_t
// from an O(1) summary when it is V or V \ {v}), by filtering otherwise.
func (e *Engine) activate() []int {
	n := e.g.N()
	fr := e.fr
	var eval []int
	if sp, ok := e.sched.(sched.SparseActivator); ok && fr != nil {
		raw, cov := sp.SparseActivations(e.step, n, fr.set)
		eval = sched.Canonical(raw, &e.actBuf)
		switch {
		case cov.Full:
			e.tracker.ObserveFull()
			e.stepAct = n
		case cov.AllBut >= 0:
			e.tracker.ObserveAllBut(cov.AllBut)
			e.stepAct = n - 1
		default:
			e.tracker.Observe(cov.List)
			e.stepAct = len(cov.List)
		}
	} else {
		activated := sched.Canonical(e.sched.Activations(e.step, n), &e.actBuf)
		e.tracker.Observe(activated)
		e.stepAct = len(activated)
		eval = activated
		if fr != nil {
			buf := fr.evalBuf[:0]
			for _, v := range activated {
				if fr.set.Contains(v) {
					buf = append(buf, v)
				}
			}
			fr.evalBuf = buf
			eval = buf
		}
	}
	e.stepEval = len(eval)
	return eval
}

// stage evaluates the ascending evaluation list against the immutable C_t
// into e.res. On a frontier engine, nodes whose (state, signal) pair is
// certified a coin-free self-loop are settle-cleared here — strictly before
// any apply-phase invalidation, so a neighbor changing in this same step
// re-dirties them.
func (e *Engine) stage(eval []int) {
	if e.wr != nil {
		e.wr.stage(e, eval)
		return
	}
	fr := e.fr
	if cap(e.res) < len(eval) {
		e.res = make([]sa.State, e.g.N())
	}
	// Sliced, not stored back: the engine keeps its full-capacity buffer.
	res := e.res[:len(eval)]
	var settles uint64
	for i, v := range eval {
		e.SignalOf(v, &e.sig)
		if fr == nil {
			res[i] = e.alg.Transition(e.cfg[v], e.sig, e.rng)
			continue
		}
		q, settled := fr.evalNode(e, v, &e.sig, e.rng)
		res[i] = q
		if settled {
			fr.set.Remove(v)
			settles++
		}
	}
	e.tally.Settled += settles
}

// apply commits the changed staged states of eval and returns their number
// k. It runs in two passes: a tight one writing the states (configuration
// and word self-word) and collecting the changed nodes in res[:k], then one
// propagating them — re-dirtying the frontier and feeding the observer in
// ascending order. A certified word step with a batch-taking observer hands
// the changed nodes over in one ApplyWordBatch call instead.
func (e *Engine) apply(eval []int, certified bool) int {
	cfg := e.cfg
	res := e.res[:len(eval)]
	var self []uint64
	if e.wr != nil {
		self = e.wr.self
	}
	// The write pass makes no calls, so its loop state stays in registers.
	// It overwrites the staged states with the changed nodes: slot k <= i
	// is written only after res[i] was read.
	k := 0
	for i, v := range eval {
		q := res[i]
		if q == cfg[v] {
			continue
		}
		cfg[v] = q
		if self != nil {
			self[v] = 1 << uint(q)
		}
		res[k] = v
		k++
	}
	changed := res[:k]
	if fr := e.fr; fr != nil {
		for _, v := range changed {
			fr.set.AddClosed(v, e.g.Neighbors(v))
		}
	}
	switch {
	case certified && e.wBatch != nil:
		e.wBatch.ApplyWordBatch(changed, cfg)
	case e.obs != nil:
		for _, v := range changed {
			e.obs.Apply(v, cfg[v])
		}
	}
	return k
}

// write sets node v's state to q outside a step (SetState, InjectFaults):
// the configuration, the word self-word and the frontier invalidation —
// what apply does for every staged change.
func (e *Engine) write(v int, q sa.State) {
	e.cfg[v] = q
	if e.wr != nil {
		e.wr.self[v] = 1 << uint(q)
	}
	if e.fr != nil {
		e.fr.set.AddClosed(v, e.g.Neighbors(v))
	}
}
