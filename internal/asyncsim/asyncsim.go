// Package asyncsim executes procedural SA algorithms (node programs over
// arbitrary comparable state types) under the asynchronous adversarial
// schedulers of package sched, mirroring the step semantics of package sim:
// at step t every activated node senses the configuration C_t (the set of
// distinct states in its inclusive neighborhood) and all activated nodes
// update simultaneously.
//
// It is the asynchronous counterpart of package syncsim and the execution
// substrate for the synchronizer of Corollary 1.2, whose product states are
// structs rather than dense integers.
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

// Engine drives one asynchronous execution of a node program.
type Engine[S comparable] struct {
	g        *graph.Graph
	step     syncsim.StepFunc[S]
	sch      sched.Scheduler
	states   []S
	scratch  []S // per-step new states of the activated set
	rng      *rand.Rand
	stepNum  int
	tracker  *sched.RoundTracker
	buf      []S
	changed  []int // nodes whose state changed in the last step
	faultBuf []int // reusable permutation buffer for InjectFaults

	// mx is always non-nil (allocated at New; replaceable via Instrument)
	// so metric updates are unconditional. tracer is attached via Trace.
	mx       *obs.Metrics
	tracer   *obs.Tracer
	src      *randx.Source   // the rng stream, checkpointed by its state
	coin     *randx.Counting // draw tally over src
	seed     int64           // construction seed, retained for checkpointing
	traceErr error           // first sink error of the attached tracer
}

// New returns an engine with the given initial configuration and scheduler
// (nil means synchronous).
func New[S comparable](g *graph.Graph, step syncsim.StepFunc[S], initial []S, s sched.Scheduler, seed int64) (*Engine[S], error) {
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
	return &Engine[S]{
		g:       g,
		step:    step,
		sch:     s,
		states:  states,
		scratch: make([]S, 0, g.N()),
		rng:     rand.New(coin),
		tracker: sched.NewRoundTracker(g.N()),
		mx:      &obs.Metrics{},
		src:     src,
		coin:    coin,
		seed:    seed,
	}, nil
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

// Step executes one asynchronous step. New states of the activated set are
// staged in a reusable scratch slice — no O(n) configuration copy per step —
// and written back only after every activated node has sensed C_t,
// preserving the simultaneous-update semantics. Nodes whose state actually
// changed are recorded for Changed.
func (e *Engine[S]) Step() {
	activated := e.sch.Activations(e.stepNum, e.g.N())
	e.scratch = e.scratch[:0]
	for _, v := range activated {
		e.scratch = append(e.scratch, e.step(e.states[v], e.sense(v), e.rng))
	}
	e.changed = e.changed[:0]
	for i, v := range activated {
		if e.scratch[i] != e.states[v] {
			e.states[v] = e.scratch[i]
			e.changed = append(e.changed, v)
		}
	}
	e.tracker.Observe(activated)
	e.stepNum++
	m := e.mx
	m.Steps.Add(1)
	m.Rounds.Store(uint64(e.tracker.Rounds()))
	m.Activated.Add(uint64(len(activated)))
	m.Evaluated.Add(uint64(len(activated)))
	m.Changes.Add(uint64(len(e.changed)))
	if n := e.coin.Take(); n != 0 {
		m.CoinDraws.Add(n)
	}
	if e.tracer != nil {
		err := e.tracer.Observe(obs.Sample{
			Step:        int64(e.stepNum),
			Round:       int64(e.tracker.Rounds()),
			Activated:   int64(len(activated)),
			Evaluated:   int64(len(activated)),
			Changes:     int64(len(e.changed)),
			Frontier:    -1,
			Violations:  -1,
			ClockSpread: -1,
		})
		if err != nil && e.traceErr == nil {
			e.traceErr = err
		}
	}
}

func (e *Engine[S]) sense(v int) []S {
	e.buf = e.buf[:0]
	e.buf = append(e.buf, e.states[v])
	for _, u := range e.g.Neighbors(v) {
		s := e.states[u]
		dup := false
		for _, t := range e.buf {
			if t == s {
				dup = true
				break
			}
		}
		if !dup {
			e.buf = append(e.buf, s)
		}
	}
	return e.buf
}

// ApplyDelta commits a topology mutation batch between steps: the delta
// (which must wrap the engine's own graph) is compacted in place and the
// touched endpoints returned, so callers can recheck dirty-set stability
// over the affected neighborhoods. The asynchronous engine keeps no
// topology-derived incremental state of its own, so no further repair is
// needed; like SetState it must run between steps, on the driving
// goroutine.
func (e *Engine[S]) ApplyDelta(d *graph.Delta) ([]int, error) {
	if d.Graph() != e.g {
		return nil, fmt.Errorf("asyncsim: delta wraps a different graph")
	}
	_, touched := d.Apply()
	return touched, nil
}

// Rounds returns the number of completed rounds (round operator ϱ).
func (e *Engine[S]) Rounds() int { return e.tracker.Rounds() }

// Steps returns the number of steps executed.
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

// Changed returns the nodes whose state changed in the most recent Step.
// The slice is owned by the engine and valid until the next Step. It is the
// dirty set that incremental stability checks recheck.
func (e *Engine[S]) Changed() []int { return e.changed }

// SetState overwrites node v's state (transient fault injection).
func (e *Engine[S]) SetState(v int, s S) { e.states[v] = s }

// InjectFaults corrupts count distinct random nodes (clamped to [0, n]) to
// states drawn from random, returning the affected nodes. It models a burst
// of transient faults mid-execution; self-stabilization guarantees recovery.
// The victims are drawn by a partial Fisher–Yates shuffle over a reusable
// buffer, so repeated bursts allocate nothing; the returned slice is owned
// by the engine and valid until the next call.
func (e *Engine[S]) InjectFaults(count int, random func(rng *rand.Rand) S) []int {
	hit := randx.PartialShuffle(&e.faultBuf, e.g.N(), count, e.rng)
	for _, v := range hit {
		e.states[v] = random(e.rng)
	}
	e.mx.Faults.Add(uint64(len(hit)))
	if n := e.coin.Take(); n != 0 {
		e.mx.CoinDraws.Add(n)
	}
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
