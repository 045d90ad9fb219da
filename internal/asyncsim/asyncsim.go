// Package asyncsim executes procedural SA algorithms (node programs over
// arbitrary comparable state types, syncsim.StepFunc) under the schedulers
// of package sched, mirroring the step semantics of package sim: at step t
// every activated node senses the configuration C_t (the set of distinct
// states in its inclusive neighborhood) and all activated nodes update
// simultaneously.
//
// It is the one engine for these programs. AlgMIS and AlgLE of Sec. 3 run
// under the synchronous schedule — the nil scheduler, A_t = V, where steps
// and rounds coincide — and the Corollary 1.2 synchronizer runs them under
// any fair scheduler through product states that are structs rather than
// dense integers.
//
// Every step runs one loop (step.go) with one plug, the coin source:
// NewParallel with p = 0 (and New) draws every coin from the engine's single
// rng in ascending activation order; p >= 1 draws node v's coins at step t
// from a counter-based stream seeded by randx.NodeSeed(seed, t, v) (under
// the synchronous scheduler these are per-(round, node) streams). Every
// positive p means what 1 means.
package asyncsim

import (
	"fmt"
	"math/rand"

	"thinunison/internal/graph"
	"thinunison/internal/obs"
	"thinunison/internal/randx"
	"thinunison/internal/sched"
	"thinunison/internal/syncsim"
)

// Engine drives one execution of a node program.
type Engine[S comparable] struct {
	g        *graph.Graph
	step     syncsim.StepFunc[S]
	sch      sched.Scheduler
	states   []S
	stepNum  int
	tracker  *sched.RoundTracker
	actBuf   []int // canonicalization buffer for unsorted activation lists
	changed  []int // nodes whose state changed in the last step, ascending
	faultBuf []int // reusable permutation buffer for InjectFaults
	res      []S   // staged next states, aligned with the step's A_t
	sensed   []S   // sense scratch

	// Coin source of the step function: coinRng is rng (the shared stream,
	// nodeSeq nil), or a stream over nodeSeq reseeded per (step, node),
	// whose draws nodeCoin counts.
	coinRng  *rand.Rand
	nodeSeq  *randx.Seq
	nodeCoin *randx.Counting

	// mx is always non-nil (allocated at New; replaceable via Instrument)
	// so metric updates are unconditional. tracer is attached via Trace.
	mx       *obs.Metrics
	tracer   *obs.Tracer
	rng      *rand.Rand      // the shared stream: p = 0 coins and fault draws
	src      *randx.Source   // rng's source, checkpointed by its state
	coin     *randx.Counting // draw tally over src
	seed     int64           // construction seed, retained for checkpointing
	traceErr error           // first sink error of the attached tracer
}

// New returns an engine with the given initial configuration and scheduler
// (nil means synchronous), drawing every coin from one shared stream. It is
// NewParallel with p = 0.
func New[S comparable](g *graph.Graph, step syncsim.StepFunc[S], initial []S, s sched.Scheduler, seed int64) (*Engine[S], error) {
	return NewParallel(g, step, initial, s, seed, 0)
}

// NewParallel returns an engine with the coin source p selects (see the
// package doc): p = 0 is the shared-stream engine of New; any p >= 1 draws
// coins from per-(step, node) streams, so runs are byte-identical for equal
// seeds at every p >= 1.
func NewParallel[S comparable](g *graph.Graph, step syncsim.StepFunc[S], initial []S, s sched.Scheduler, seed int64, p int) (*Engine[S], error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if len(initial) != g.N() {
		return nil, fmt.Errorf("asyncsim: %d initial states for %d nodes", len(initial), g.N())
	}
	if s == nil {
		s = sched.NewSynchronous()
	}
	states := make([]S, len(initial))
	copy(states, initial)
	// A randx.Source draws what rand.NewSource draws, and a checkpoint saves
	// its state; the counting wrapper is a pass-through tallying the draws.
	src := randx.NewSource(seed)
	coin := randx.NewCounting(src)
	e := &Engine[S]{
		g:       g,
		step:    step,
		sch:     s,
		states:  states,
		tracker: sched.NewRoundTracker(g.N()),
		mx:      &obs.Metrics{},
		rng:     rand.New(coin),
		src:     src,
		coin:    coin,
		seed:    seed,
	}
	e.coinRng = e.rng
	if p >= 1 {
		e.nodeSeq = &randx.Seq{}
		e.nodeCoin = randx.NewCounting(e.nodeSeq)
		e.coinRng = rand.New(e.nodeCoin)
	}
	return e, nil
}

// Instrument replaces the engine's metric set with mx (call before the
// first Step). The engine always maintains a metric set — Instrument only
// redirects where the counters land.
func (e *Engine[S]) Instrument(mx *obs.Metrics) { e.mx = mx }

// Metrics returns the engine's metric set (never nil).
func (e *Engine[S]) Metrics() *obs.Metrics { return e.mx }

// Trace attaches a sampled step tracer / flight recorder; nil detaches.
// Sink errors are sticky and reported by TraceErr.
func (e *Engine[S]) Trace(t *obs.Tracer) { e.tracer = t }

// Tracer returns the attached tracer, or nil.
func (e *Engine[S]) Tracer() *obs.Tracer { return e.tracer }

// TraceErr returns the first sink error hit by the attached tracer.
func (e *Engine[S]) TraceErr() error { return e.traceErr }

// Graph returns the underlying graph.
func (e *Engine[S]) Graph() *graph.Graph { return e.g }

// ApplyDelta commits a topology mutation batch between steps: the delta
// (which must wrap the engine's own graph) is compacted in place and the
// touched endpoints returned, so callers can recheck dirty-set stability
// (syncsim.Checker.Recheck) over the affected neighborhoods. Like SetState
// it must run between steps, on the driving goroutine.
func (e *Engine[S]) ApplyDelta(d *graph.Delta) ([]int, error) {
	if d.Graph() != e.g {
		return nil, fmt.Errorf("asyncsim: delta wraps a different graph")
	}
	_, touched := d.Apply()
	return touched, nil
}

// Rounds returns the number of completed rounds (round operator ϱ).
func (e *Engine[S]) Rounds() int { return e.tracker.Rounds() }

// Steps returns the number of steps executed; under the synchronous
// scheduler steps and rounds coincide.
func (e *Engine[S]) Steps() int { return e.stepNum }

// State returns the current state of node v.
func (e *Engine[S]) State(v int) S { return e.states[v] }

// States returns a copy of the configuration.
func (e *Engine[S]) States() []S {
	out := make([]S, len(e.states))
	copy(out, e.states)
	return out
}

// View returns the engine-owned current configuration without copying. The
// slice must be treated as read-only and is only valid until the next Step,
// SetState or InjectFaults. It exists so per-step stability checks stay
// allocation-free.
func (e *Engine[S]) View() []S { return e.states }

// Changed returns the nodes whose state changed in the most recent Step, in
// ascending order. The slice is owned by the engine and valid until the
// next Step. It is the dirty set that incremental stability checks recheck.
func (e *Engine[S]) Changed() []int { return e.changed }

// SetState overwrites node v's state (transient fault injection).
func (e *Engine[S]) SetState(v int, s S) { e.states[v] = s }

// InjectFaults corrupts count distinct random nodes (clamped to [0, n]) to
// states drawn from random, returning the affected nodes. It models a burst
// of transient faults mid-execution; self-stabilization guarantees recovery.
// The victims and their states come from the shared stream at every p, by a
// partial Fisher–Yates shuffle over a reusable buffer, so repeated bursts
// allocate nothing; the returned slice is owned by the engine and valid
// until the next call.
func (e *Engine[S]) InjectFaults(count int, random func(rng *rand.Rand) S) []int {
	hit := randx.PartialShuffle(&e.faultBuf, e.g.N(), count, e.rng)
	for _, v := range hit {
		e.states[v] = random(e.rng)
	}
	e.mx.Faults.Add(uint64(len(hit)))
	e.flushCoins()
	return hit
}

// RunUntil runs until cond holds or maxRounds elapse; reports rounds
// consumed and whether cond held.
func (e *Engine[S]) RunUntil(cond func(e *Engine[S]) bool, maxRounds int) (int, bool) {
	start := e.tracker.Rounds()
	if cond(e) {
		return 0, true
	}
	for e.tracker.Rounds()-start < maxRounds {
		e.Step()
		if cond(e) {
			return e.tracker.Rounds() - start, true
		}
	}
	e.mx.BudgetExhausted.Add(1)
	return maxRounds, false
}

// RunRounds executes steps until the given number of additional rounds have
// completed.
func (e *Engine[S]) RunRounds(rounds int) {
	target := e.tracker.Rounds() + rounds
	for e.tracker.Rounds() < target {
		e.Step()
	}
}
