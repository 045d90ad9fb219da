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
// every activated node has sensed C_t. The step's counters are published
// into the metric set before Step returns.
func (e *Engine[S]) Step() {
	e.advance()
	e.publish()
}

// advance is Step without the closing publish: the run loops call it and
// publish only when the tally is due (obs.Tally.Due) and on return.
func (e *Engine[S]) advance() {
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
	e.tallyStep(len(act))
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

// tallyStep adds one completed step's counts to the tally, publishes it
// when due, and, if a tracer is attached, records the step sample (one
// allocation-free ring write; sink errors are sticky in traceErr).
func (e *Engine[S]) tallyStep(act int) {
	t := &e.tally
	t.Steps++
	t.Rounds = uint64(e.tracker.Rounds())
	t.Activated += uint64(act)
	t.Evaluated += uint64(act)
	t.Changes += uint64(len(e.changed))
	t.FrontierSize = -1
	e.takeCoins()
	if t.Due(e.g.N()) {
		e.publish()
	}
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

// takeCoins drains the draw counts — the shared stream and, at p >= 1, the
// per-node streams — into the tally's CoinDraws.
func (e *Engine[S]) takeCoins() {
	e.tally.CoinDraws += e.coin.Take()
	if e.nodeCoin != nil {
		e.tally.CoinDraws += e.nodeCoin.Take()
	}
}
