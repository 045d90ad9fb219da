package asyncsim

import (
	"math/rand"

	"thinunison/internal/obs"
	"thinunison/internal/randx"
	"thinunison/internal/sched"
)

// This file is the engine's single step loop. Every p runs the same three
// phases — draw the canonical A_t, stage it against C_t, apply — differing
// only in the two plugs of the package doc: the coin source each lane
// draws from, and whether A_t is staged in one inline lane or split over
// the shards and staged concurrently on the worker pool. Staging reads
// only C_t and the apply phase then writes C_{t+1}, so the paper's
// simultaneous-update semantics hold by construction.

// lane is one staging unit of the step loop: the activated nodes of its
// node range plus every per-lane scratch buffer. A lane is touched by
// exactly one goroutine per phase, so its buffers need no synchronization.
type lane[S comparable] struct {
	bucket []int // this step's activated nodes in the lane's range, ascending
	buf    []int // backing store of bucket when A_t must be split
	res    []S   // staged next states, aligned with bucket
	sensed []S   // sense scratch

	// Coin source. At p = 0 the lane draws from the engine's shared rng in
	// activation order (seq and coin nil); at p >= 1 it reseeds seq per
	// (step, node), so results are independent of the lane count, and coin
	// counts the draws.
	rng  *rand.Rand
	seq  *randx.Seq
	coin *randx.Counting
}

// Step executes one step: it queries the scheduler for A_t, lets every
// activated node sense C_t and stage its next state, then applies the
// staged states simultaneously. Nodes whose state actually changed are
// recorded for Changed, in ascending order.
//
// The steady step is allocation-free: new states are staged in per-lane
// scratch (no O(n) configuration copy per step) and written back only after
// every activated node has sensed C_t.
func (e *Engine[S]) Step() {
	act := sched.Canonical(e.sch.Activations(e.stepNum, e.g.N()), &e.actBuf)
	if e.pool != nil {
		e.bucket(act)
		e.pool.Run(e.stageFn)
	} else {
		e.lanes[0].bucket = act
		e.stage(&e.lanes[0])
	}
	// Lanes ascend and so do buckets within them, so applying them in turn
	// records Changed in ascending node order.
	e.changed = e.changed[:0]
	for i := range e.lanes {
		l := &e.lanes[i]
		for j, v := range l.bucket {
			if q := l.res[j]; q != e.states[v] {
				e.states[v] = q
				e.changed = append(e.changed, v)
			}
		}
	}
	e.tracker.Observe(act)
	e.stepNum++
	e.flushStep(len(act))
}

// bucket splits A_t across the lanes: the canonical full set aliases the
// shards' contiguous ranges; any other set is distributed by owner shard,
// ascending within each bucket.
func (e *Engine[S]) bucket(act []int) {
	if len(act) == e.g.N() {
		for s := range e.lanes {
			lo, hi := e.part.Range(s)
			e.lanes[s].bucket = act[lo:hi]
		}
		return
	}
	for s := range e.lanes {
		e.lanes[s].buf = e.lanes[s].buf[:0]
	}
	for _, v := range act {
		l := &e.lanes[e.part.ShardOf(v)]
		l.buf = append(l.buf, v)
	}
	for s := range e.lanes {
		e.lanes[s].bucket = e.lanes[s].buf
	}
}

// stage evaluates lane l's bucket against the immutable C_t into l.res.
func (e *Engine[S]) stage(l *lane[S]) {
	res := l.res[:0]
	for _, v := range l.bucket {
		if l.seq != nil {
			l.seq.Reseed(randx.NodeSeed(e.seed, e.stepNum, v))
		}
		res = append(res, e.step(e.states[v], e.sense(l, v), l.rng))
	}
	l.res = res
}

// sense returns the deduplicated state set of N+(v), self first and then
// neighbors by first occurrence in ascending ID order, in lane l's scratch.
func (e *Engine[S]) sense(l *lane[S], v int) []S {
	b := append(l.sensed[:0], e.states[v])
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
	l.sensed = b
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
// every lane's stream — into CoinDraws (O(lanes)).
func (e *Engine[S]) flushCoins() {
	if n := e.coin.Take(); n != 0 {
		e.mx.CoinDraws.Add(n)
	}
	for i := range e.lanes {
		if c := e.lanes[i].coin; c != nil {
			if n := c.Take(); n != 0 {
				e.mx.CoinDraws.Add(n)
			}
		}
	}
}
