package asyncsim

import (
	"thinunison/internal/obs"
	"thinunison/internal/randx"
	"thinunison/internal/sched"
)

// This file is the engine's single step loop. Every p runs the same three
// phases — draw the canonical A_t, stage it against C_t, apply — differing
// only in the coin source of the package doc. Staging reads only C_t and the
// apply phase then writes C_{t+1}, so the paper's simultaneous-update
// semantics hold by construction.

// Step executes one step: it queries the scheduler for A_t, lets every
// activated node sense C_t and stage its next state, then applies the
// staged states simultaneously. Nodes whose state actually changed are
// recorded for Changed, in ascending order.
//
// The steady step is allocation-free: new states are staged in reusable
// scratch (no O(n) configuration copy per step) and written back only after
// every activated node has sensed C_t.
func (e *Engine[S]) Step() {
	act := sched.Canonical(e.sch.Activations(e.stepNum, e.g.N()), &e.actBuf)
	res := e.res[:0]
	for _, v := range act {
		if e.nodeSeq != nil {
			e.nodeSeq.Reseed(randx.NodeSeed(e.seed, e.stepNum, v))
		}
		res = append(res, e.step(e.states[v], e.sense(v), e.coinRng))
	}
	e.res = res
	// A_t ascends, so applying it in order records Changed ascending.
	e.changed = e.changed[:0]
	for j, v := range act {
		if q := res[j]; q != e.states[v] {
			e.states[v] = q
			e.changed = append(e.changed, v)
		}
	}
	e.tracker.Observe(act)
	e.stepNum++
	e.flushStep(len(act))
}

// sense returns the deduplicated state set of N+(v), self first and then
// neighbors by first occurrence in ascending ID order, in the engine's
// scratch.
func (e *Engine[S]) sense(v int) []S {
	b := append(e.sensed[:0], e.states[v])
	for _, u := range e.g.Neighbors(v) {
		s := e.states[u]
		dup := false
		for _, t := range b {
			if t == s {
				dup = true
				break
			}
		}
		if !dup {
			b = append(b, s)
		}
	}
	e.sensed = b
	return b
}

// flushStep folds one completed step's tallies into the metric set and, if
// a tracer is attached, records the step sample (one allocation-free ring
// write; sink errors are sticky in traceErr).
func (e *Engine[S]) flushStep(act int) {
	m := e.mx
	m.Steps.Add(1)
	m.Rounds.Store(uint64(e.tracker.Rounds()))
	m.Activated.Add(uint64(act))
	m.Evaluated.Add(uint64(act))
	m.Changes.Add(uint64(len(e.changed)))
	e.flushCoins()
	if e.tracer != nil {
		err := e.tracer.Observe(obs.Sample{
			Step:        int64(e.stepNum),
			Round:       int64(e.tracker.Rounds()),
			Activated:   int64(act),
			Evaluated:   int64(act),
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

// flushCoins drains the draw tallies — the shared stream and, at p >= 1,
// the per-node streams — into CoinDraws.
func (e *Engine[S]) flushCoins() {
	if n := e.coin.Take(); n != 0 {
		e.mx.CoinDraws.Add(n)
	}
	if e.nodeCoin != nil {
		if n := e.nodeCoin.Take(); n != 0 {
			e.mx.CoinDraws.Add(n)
		}
	}
}
