package sim

import (
	"fmt"
	"math/rand"

	"thinunison/internal/failpoint"
	"thinunison/internal/randx"
	"thinunison/internal/sa"
	"thinunison/internal/sched"
)

// This file is the engine's single step loop. Every execution mode — classic
// or sharded, dense or frontier-sparse, scalar or word-parallel — runs the
// same four phases, differing only in three plugs:
//
//   - activation source (activate): A_t canonicalized (sched.Canonical), or
//     A_t ∩ frontier;
//   - lanes (bucket): one lane over the whole graph in classic mode, one lane
//     per shard when sharded, staged concurrently on the worker pool when
//     there are two or more;
//   - evaluator (stage): the scalar δ with a coin-source plug, or the word
//     kernel.
//
// Staging reads only C_t; the apply phase then writes C_{t+1} through
// applyLane, so the paper's simultaneous-update semantics hold by
// construction.

// lane is one staging unit of the step loop: the evaluation bucket of a node
// range plus every per-lane scratch buffer. A lane is touched by exactly one
// goroutine per phase, so its buffers need no synchronization.
type lane struct {
	lo, hi  int        // owned node range [lo, hi)
	bucket  []int      // this step's evaluation list, ascending, within [lo, hi)
	buf     []int      // backing store of bucket when the list must be split
	res     []sa.State // staged next states, aligned with bucket
	changed []int      // nodes the last applyLane pass changed, a prefix of it
	sig     sa.Signal  // scalar signal scratch

	// Coin source. Classic mode draws from the engine's shared rng in
	// activation order (seq nil); sharded lanes reseed seq per (step, node),
	// so results are independent of the worker count. coin counts the draws.
	rng  *rand.Rand
	seq  *randx.Seq
	coin *randx.Counting

	// Word evaluator: gather buffers for buckets that are not the whole
	// range, and the lane's goodness slab (bit i ↔ node lo+i; tail bits 1).
	cur  []sa.State
	sws  []uint64
	good []uint64
	slab []uint64

	chg uint64 // interior changes applied by the concurrent phase
}

// applySel selects which staged nodes applyLane commits.
type applySel uint8

const (
	applyAll      applySel = iota
	applyInterior          // interior nodes only (the concurrent phase)
	applyBoundary          // boundary nodes only (the coordinator phase)
)

// Step executes one step: it queries the scheduler for A_t, computes the
// signal of each evaluated node under C_t, applies δ simultaneously, and
// advances to C_{t+1}.
//
// The hot path is allocation-free: new states are staged in per-lane scratch
// (no O(n) configuration copy per step) and written back only after every
// evaluated node has read C_t. With two or more lanes the staging fans out
// across the worker pool; see Options.Parallelism.
func (e *Engine) Step() error {
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
		if e.pool != nil {
			e.bucket(eval)
			e.pool.Run(e.stageFn)
		} else {
			e.lanes[0].bucket = eval
			e.stage(&e.lanes[0])
		}
		certified := e.wr != nil && len(eval) == refresh && e.slabsAllOnes()
		e.stepChg = e.apply(certified)
	}
	e.step++
	if err := e.flushStats(); err != nil {
		return err
	}
	for _, h := range e.hooks {
		if err := h(e); err != nil {
			return fmt.Errorf("sim: hook at step %d: %w", e.step, err)
		}
	}
	return nil
}

// activate draws A_t, feeds the round tracker and LastActivated, records the
// step's activation/evaluation tallies, and returns the evaluation list: A_t
// itself when dense, A_t ∩ frontier when sparse — via the scheduler's
// SparseActivator fast path when it has one (round tracking then counts A_t
// from an O(1) summary when it is V or V \ {v}), by filtering otherwise.
func (e *Engine) activate() []int {
	n := e.g.N()
	fr := e.fr
	if fr != nil {
		fr.lastFull, fr.lastAllBut = false, -1
	}
	var eval []int
	if sp, ok := e.sched.(sched.SparseActivator); ok && fr != nil {
		raw, cov := sp.SparseActivations(e.step, n, fr.set)
		eval = sched.Canonical(raw, &e.actBuf)
		switch {
		case cov.Full:
			e.tracker.ObserveFull()
			fr.lastFull = true
			e.lastActivated = nil
			e.stepAct = n
		case cov.AllBut >= 0:
			e.tracker.ObserveAllBut(cov.AllBut)
			fr.lastAllBut = cov.AllBut
			e.lastActivated = nil
			e.stepAct = n - 1
		default:
			e.tracker.Observe(cov.List)
			e.lastActivated = cov.List
			e.stepAct = len(cov.List)
		}
	} else {
		activated := sched.Canonical(e.sched.Activations(e.step, n), &e.actBuf)
		e.tracker.Observe(activated)
		e.lastActivated = activated
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

// bucket splits the evaluation list across two or more lanes (a single lane
// takes it whole): the canonical full set aliases the lanes' contiguous
// ranges; any other list is distributed by owner shard, ascending within
// each bucket.
func (e *Engine) bucket(eval []int) {
	if len(eval) == e.g.N() {
		for s := range e.lanes {
			l := &e.lanes[s]
			l.bucket = eval[l.lo:l.hi]
		}
		return
	}
	for s := range e.lanes {
		e.lanes[s].buf = e.lanes[s].buf[:0]
	}
	for _, v := range eval {
		l := &e.lanes[e.part.ShardOf(v)]
		l.buf = append(l.buf, v)
	}
	for s := range e.lanes {
		e.lanes[s].bucket = e.lanes[s].buf
	}
}

// stage evaluates lane l's bucket against the immutable C_t into l.res. On a
// frontier engine, nodes whose (state, signal) pair is certified a coin-free
// self-loop are settle-cleared here — own-lane bits only, and strictly before
// any apply-phase invalidation, so a neighbor changing in this same step
// re-dirties them.
func (e *Engine) stage(l *lane) {
	if e.wr != nil {
		e.wr.stage(e, l)
		return
	}
	fr := e.fr
	if cap(l.res) < len(l.bucket) {
		l.res = make([]sa.State, l.hi-l.lo)
	}
	// Sliced, not stored back: the lane keeps its full-capacity buffer.
	res := l.res[:len(l.bucket)]
	var settles uint64
	for i, v := range l.bucket {
		if l.seq != nil {
			l.seq.Reseed(randx.NodeSeed(e.seed, e.step, v))
		}
		e.SignalOf(v, &l.sig)
		if fr == nil {
			res[i] = e.alg.Transition(e.cfg[v], l.sig, l.rng)
			continue
		}
		q, settled := fr.evalNode(e, v, &l.sig, l.rng)
		res[i] = q
		if settled {
			fr.set.Remove(v)
			settles++
		}
	}
	if settles != 0 {
		e.mx.Settled.Add(settles)
	}
}

// apply commits the staged results and returns the step's change count, by
// one of three routes:
//
//   - a certified word step with a batch-taking observer on a single lane
//     hands the changed nodes over in one ApplyWordBatch call;
//   - with two or more lanes and an order-independent observer (or none),
//     interior nodes apply concurrently on the pool — an interior node's
//     whole neighborhood lives in its owner shard, so those writes and a
//     ShardedObserver's counters never race — and boundary nodes follow on
//     the coordinator;
//   - otherwise the coordinator applies every lane in turn, which is
//     ascending node order (lanes ascend, and so do buckets within them).
func (e *Engine) apply(certified bool) int {
	switch {
	case certified && e.wBatch != nil && len(e.lanes) == 1:
		l := &e.lanes[0]
		k := e.applyLane(l, applyAll, nil)
		e.wBatch.ApplyWordBatch(l.changed[:k], e.cfg)
		return int(k)
	case e.pool != nil && (e.obs == nil || e.shObs != nil):
		e.pool.Run(e.applyFn)
		var chg, boundary uint64
		for s := range e.lanes {
			l := &e.lanes[s]
			chg += l.chg
			boundary += e.applyLane(l, applyBoundary, e.obs)
		}
		if boundary != 0 {
			e.mx.BoundaryApplies.Add(boundary)
		}
		return int(chg + boundary)
	default:
		var chg uint64
		for s := range e.lanes {
			chg += e.applyLane(&e.lanes[s], applyAll, e.obs)
		}
		return int(chg)
	}
}

// applyLane commits the changed staged states of lane l selected by sel
// and returns their number k. It runs in two passes: a tight one writing the
// states (configuration and word self-word) and collecting the changed nodes
// in l.changed[:k], then one propagating them — re-dirtying the frontier and
// feeding o in ascending order. Observers therefore see the lane's states
// already written; they must not rely on reading the engine configuration
// during Apply anyway, since sharded interior delivery is concurrent.
func (e *Engine) applyLane(l *lane, sel applySel, o ConfigObserver) uint64 {
	cfg, bucket := e.cfg, l.bucket
	res := l.res[:len(bucket)]
	var self []uint64
	if e.wr != nil {
		self = e.wr.self
	}
	if cap(l.changed) < len(bucket) {
		l.changed = make([]int, l.hi-l.lo)
	}
	// The write pass makes no calls, so its loop state stays in registers.
	changed := l.changed[:len(bucket)]
	split, k := sel != applyAll, 0
	for i, v := range bucket {
		q := res[i]
		if q == cfg[v] || split && e.part.Interior(v) != (sel == applyInterior) {
			continue
		}
		cfg[v] = q
		if self != nil {
			self[v] = 1 << uint(q)
		}
		changed[k] = v
		k++
	}
	changed = changed[:k]
	if fr := e.fr; fr != nil {
		for _, v := range changed {
			fr.invalidate(e.g, v)
		}
	}
	if o != nil {
		for _, v := range changed {
			o.Apply(v, cfg[v])
		}
	}
	return uint64(k)
}

// write sets node v's state to q outside a step (SetState, InjectFaults):
// the configuration, the word self-word and the frontier invalidation —
// what applyLane does for every staged change.
func (e *Engine) write(v int, q sa.State) {
	e.cfg[v] = q
	if e.wr != nil {
		e.wr.self[v] = 1 << uint(q)
	}
	if e.fr != nil {
		e.fr.invalidate(e.g, v)
	}
}
