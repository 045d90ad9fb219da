package obs

import "sync/atomic"

// PublishSteps is the number of steps an engine's run loop tallies at most
// before it publishes them (see Tally.Due).
const PublishSteps = 64

// Tally is an engine's plain, single-goroutine tally of the counters its
// steps advance. The engine adds to it every step — no atomics, no shared
// cache line — and moves it into its Metrics with Publish:
//
//   - at every return from a public engine call (Step, RunUntil, RunRounds,
//     InjectFaults, SaveState, Metrics), so between calls the metric set is
//     exact;
//   - inside a run loop (RunUntil, RunRounds) whenever Due reports that
//     PublishSteps steps or n activations have built up, so a concurrent
//     reader of the set, such as the campaign watchdog, sees Steps trail the
//     engine's step count by less than PublishSteps and never go backwards.
//
// Rounds and FrontierSize are the gauges at the last tallied step; the
// counters are sums since the last Publish.
type Tally struct {
	Steps         uint64
	Activated     uint64
	Evaluated     uint64
	Changes       uint64
	FrontierSkips uint64
	Settled       uint64
	CoinDraws     uint64
	WordSteps     uint64

	Rounds       uint64
	FrontierSize int64 // < 0: the engine keeps no frontier
}

// Due reports whether a run loop should publish now: PublishSteps steps or
// n activations have built up since the last Publish.
func (t *Tally) Due(n int) bool {
	return t.Steps >= PublishSteps || t.Activated >= uint64(n)
}

// Publish adds each non-zero counter into m with one atomic add, stores the
// gauges when a step was tallied since the last Publish, and empties the
// tally.
func (t *Tally) Publish(m *Metrics) {
	if t.Steps != 0 {
		m.Steps.Add(t.Steps)
		m.Rounds.Store(t.Rounds)
		if t.FrontierSize >= 0 {
			m.FrontierSize.Store(uint64(t.FrontierSize))
		}
	}
	addNonZero(&m.Activated, t.Activated)
	addNonZero(&m.Evaluated, t.Evaluated)
	addNonZero(&m.Changes, t.Changes)
	addNonZero(&m.FrontierSkips, t.FrontierSkips)
	addNonZero(&m.Settled, t.Settled)
	addNonZero(&m.CoinDraws, t.CoinDraws)
	addNonZero(&m.WordSteps, t.WordSteps)
	*t = Tally{}
}

func addNonZero(c *atomic.Uint64, d uint64) {
	if d != 0 {
		c.Add(d)
	}
}
