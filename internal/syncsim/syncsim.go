// Package syncsim executes synchronous procedural SA algorithms — AlgMIS and
// AlgLE of Sec. 3 are presented in this style — under the synchronous
// schedule (A_t = V for all t, so rounds and steps coincide).
//
// Sensing retains the stone age set-broadcast semantics: in each round a node
// observes the *set* of distinct states present in its inclusive
// neighborhood, with no multiplicities and no identities. A node's program is
// a pure function of (own state, sensed state set, coin tosses); all nodes
// run the same program (anonymity and size-uniformity are preserved — the
// program never sees node IDs or n).
//
// Large single runs shard across cores: NewParallel partitions the graph
// into contiguous node shards (internal/shard) and fans each round over a
// persistent worker pool, with coin tosses drawn from counter-based
// per-(round, node) streams so a sharded run is byte-identical to a
// sequential run of the same seed at any worker count.
//
// Programs with genuine fixed points can additionally run frontier-sparse
// (EnableFrontier): settled nodes — certified coin-free fixed points of the
// step function — are skipped until their neighborhood changes, making a
// quiescent round O(|frontier|·Δ) instead of O(n·Δ).
package syncsim

import (
	"fmt"
	"math/rand"

	"thinunison/internal/frontier"
	"thinunison/internal/graph"
	"thinunison/internal/obs"
	"thinunison/internal/randx"
	"thinunison/internal/shard"
)

// StepFunc is a node program: given the node's current state and the
// deduplicated set of states sensed in its inclusive neighborhood, it returns
// the next state. Randomness must come only from rng.
//
// The sensed slice is sorted by first occurrence over ascending neighbor ID
// for determinism, but programs must treat it as an unordered set: the SA
// model reveals neither order, nor multiplicity, nor identity.
type StepFunc[S comparable] func(self S, sensed []S, rng *rand.Rand) S

// Engine runs a synchronous execution of a node program on a graph.
type Engine[S comparable] struct {
	g        *graph.Graph
	step     StepFunc[S]
	states   []S
	next     []S
	rng      *rand.Rand
	round    int
	buf      []S
	changed  []int // nodes whose state changed in the last round
	faultBuf []int // reusable permutation buffer for InjectFaults

	par *parRuntime[S]    // sharded-execution runtime; nil in classic mode
	fr  *frontierState[S] // frontier-sparse runtime; nil in dense mode

	// mx is always non-nil (allocated at New; replaceable via Instrument)
	// so metric updates are unconditional. tracer is attached via Trace.
	mx       *obs.Metrics
	tracer   *obs.Tracer
	src      *randx.Source   // the classic rng stream, checkpointed by its state
	coin     *randx.Counting // draw tally over src
	seed     int64           // construction seed, retained for checkpointing
	traceErr error           // first sink error of the attached tracer
}

// frontierState holds the frontier-sparse execution state of an engine: the
// dirty set of unsettled nodes and the program's settled certifier. See
// EnableFrontier.
type frontierState[S comparable] struct {
	set     *frontier.Set
	settled func(self S, sensed []S) bool

	dirty []int // sequential enumeration buffer
	next  []S   // sequential staged states, aligned with dirty

	// Sharded variants, one slot per shard.
	dirtyS   [][]int
	nextS    [][]S
	changedS [][]int
	// evalS/stlS are per-shard evaluation and settle-promotion tallies,
	// written by each shard's worker during stage and summed by the
	// coordinator after the phase (O(P) counter aggregation per round).
	evalS []uint64
	stlS  []uint64

	// stage and applyInterior are the per-phase worker bodies, built once so
	// the steady round loop allocates no closures.
	stage         func(s int)
	applyInterior func(s int)
}

// parRuntime holds the sharded-execution state of an engine: the partition,
// the persistent worker pool and per-worker scratch. See NewParallel.
type parRuntime[S comparable] struct {
	part    *shard.Partition
	pool    *shard.Pool
	seed    int64
	seqs    []*randx.Seq      // per-worker reseedable coin-toss sources
	coins   []*randx.Counting // per-worker draw counters wrapping seqs
	rngs    []*rand.Rand      // per-worker rand.Rand over the counted seqs
	bufs    [][]S             // per-worker sense scratch
	changed [][]int           // per-shard changed nodes of the last round

	// churnAccum is the accumulated topology-churn weight since the last
	// (re)partition; see ApplyDelta.
	churnAccum int

	// body is the per-round worker function, built once at construction so
	// the round loop allocates no closures.
	body func(s int)
}

// New returns an engine with the given initial configuration.
func New[S comparable](g *graph.Graph, step StepFunc[S], initial []S, seed int64) (*Engine[S], error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if len(initial) != g.N() {
		return nil, fmt.Errorf("syncsim: %d initial states for %d nodes", len(initial), g.N())
	}
	states := make([]S, len(initial))
	copy(states, initial)
	// A randx.Source draws what rand.NewSource draws, and a checkpoint saves
	// its state; the counting wrapper is a pass-through tallying the draws.
	src := randx.NewSource(seed)
	coin := randx.NewCounting(src)
	return &Engine[S]{
		g:      g,
		step:   step,
		states: states,
		next:   make([]S, len(initial)),
		rng:    rand.New(coin),
		mx:     &obs.Metrics{},
		src:    src,
		coin:   coin,
		seed:   seed,
	}, nil
}

// Instrument replaces the engine's metric set with mx (call before the
// first Round). The engine always maintains a metric set — Instrument only
// redirects where the counters land, e.g. into a campaign-owned set.
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

// NewParallel returns a sharded engine: the graph is partitioned into
// parallelism contiguous node shards (clamped to the node count) and every
// Round fans the per-node step computations over a persistent worker pool.
// Call Close when done with the engine to release the workers.
//
// Sharded rounds draw each node's coin tosses from a counter-based
// per-(round, node) stream (randx.NodeSeed) instead of the engine's shared
// rng, so runs are byte-identical for equal seeds at ANY parallelism >= 1 —
// including 1, which executes inline and serves as the reference side of the
// differential harness in internal/shard. The step function must be safe
// for concurrent calls (pure up to its rng argument, as the MIS/LE programs
// are). parallelism <= 0 returns the classic sequential engine of New,
// whose coin tosses come from the single shared stream.
func NewParallel[S comparable](g *graph.Graph, step StepFunc[S], initial []S, seed int64, parallelism int) (*Engine[S], error) {
	e, err := New(g, step, initial, seed)
	if err != nil || parallelism <= 0 {
		return e, err
	}
	part := shard.NewPartition(g, parallelism)
	p := part.P()
	pr := &parRuntime[S]{
		part:    part,
		pool:    shard.NewPool(p),
		seed:    seed,
		seqs:    make([]*randx.Seq, p),
		rngs:    make([]*rand.Rand, p),
		bufs:    make([][]S, p),
		changed: make([][]int, p),
	}
	pr.coins = make([]*randx.Counting, p)
	for i := 0; i < p; i++ {
		pr.seqs[i] = &randx.Seq{}
		pr.coins[i] = randx.NewCounting(pr.seqs[i])
		pr.rngs[i] = rand.New(pr.coins[i])
	}
	// The worker body reads e.round, e.states and e.next directly; all are
	// written only by the coordinator between pool phases, and the pool's
	// channel handoffs order those writes.
	pr.body = func(s int) {
		lo, hi := pr.part.Range(s)
		rng, seq := pr.rngs[s], pr.seqs[s]
		ch := pr.changed[s][:0]
		for v := lo; v < hi; v++ {
			seq.Reseed(randx.NodeSeed(pr.seed, e.round, v))
			e.next[v] = e.step(e.states[v], e.senseInto(&pr.bufs[s], v), rng)
			if e.next[v] != e.states[v] {
				ch = append(ch, v)
			}
		}
		pr.changed[s] = ch
	}
	e.par = pr
	return e, nil
}

// EnableFrontier switches the engine to frontier-sparse rounds: it
// maintains a per-node settled flag and skips settled nodes wholesale, so a
// round costs O(|frontier|·Δ) instead of O(n·Δ). settled(self, sensed) must
// be sound the way sa.SelfLooper is: a true verdict asserts that
// step(self, sensed, rng) returns self and draws nothing from rng, for
// every rng — which is what keeps a frontier run byte-identical to the
// dense run of the same seed at any parallelism (skipped nodes provably
// neither change state nor perturb any coin-toss stream). A node re-enters
// the frontier in O(deg v) whenever it or a neighbor changes state
// (rounds, SetState and InjectFaults alike).
//
// Programs that never quiesce gain nothing here: AlgMIS redraws temporary
// identifiers and AlgLE advances its epoch round counter every round, so
// their frontier never empties and the campaign drivers leave them dense.
// The mode pays off for programs with genuine fixed points (converging
// gossip, output-stable detectors).
//
// Call it before the first Round; it panics mid-run, because settled flags
// certified against unobserved history would be unsound.
func (e *Engine[S]) EnableFrontier(settled func(self S, sensed []S) bool) {
	if e.round != 0 {
		panic("syncsim: EnableFrontier after the first Round")
	}
	fr := &frontierState[S]{settled: settled}
	if e.par == nil {
		fr.set = frontier.New(e.g.N())
		fr.set.Fill()
		e.fr = fr
		return
	}
	pr := e.par
	p := pr.part.P()
	fr.set = frontier.NewSharded(e.g.N(), pr.part.Starts(), pr.part.ShardIndex())
	fr.set.Fill()
	fr.dirtyS = make([][]int, p)
	fr.nextS = make([][]S, p)
	fr.changedS = make([][]int, p)
	fr.evalS = make([]uint64, p)
	fr.stlS = make([]uint64, p)
	// Stage: each worker evaluates its own shard's slice of the frontier
	// against the immutable current configuration, settle-clearing its own
	// bits (invalidation happens in later phases, so sets win over clears)
	// and recording all changed nodes of the shard in ascending order.
	fr.stage = func(s int) {
		lo, hi := pr.part.Range(s)
		fr.dirtyS[s] = fr.set.AppendRange(fr.dirtyS[s][:0], lo, hi)
		next := fr.nextS[s][:0]
		ch := fr.changedS[s][:0]
		rng, seq := pr.rngs[s], pr.seqs[s]
		var settles uint64
		for _, v := range fr.dirtyS[s] {
			seq.Reseed(randx.NodeSeed(pr.seed, e.round, v))
			sensed := e.senseInto(&pr.bufs[s], v)
			nx := e.step(e.states[v], sensed, rng)
			next = append(next, nx)
			if nx != e.states[v] {
				ch = append(ch, v)
			} else if fr.settled(e.states[v], sensed) {
				fr.set.Remove(v)
				settles++
			}
		}
		fr.nextS[s] = next
		fr.changedS[s] = ch
		fr.evalS[s] = uint64(len(fr.dirtyS[s]))
		fr.stlS[s] = settles
	}
	// Apply interior changes concurrently: an interior node's whole
	// neighborhood lives in its owner shard, so the in-place state write and
	// the dirty-bit invalidation never race across workers.
	fr.applyInterior = func(s int) {
		for i, v := range fr.dirtyS[s] {
			if !pr.part.Interior(v) {
				continue
			}
			if nx := fr.nextS[s][i]; nx != e.states[v] {
				e.states[v] = nx
				e.invalidate(v)
			}
		}
	}
	e.fr = fr
}

// invalidate re-dirties node v and its neighbors after a state change.
func (e *Engine[S]) invalidate(v int) {
	e.fr.set.Add(v)
	for _, u := range e.g.Neighbors(v) {
		e.fr.set.Add(u)
	}
}

// ApplyDelta commits a topology mutation batch between rounds and repairs
// the engine's incremental state: touched endpoints (and their
// neighborhoods) re-enter the frontier, and a sharded engine re-classifies
// the endpoints' interior/boundary status — or repartitions outright once
// accumulated churn weight crosses the threshold. The delta must wrap the
// engine's own graph. The touched nodes are returned so callers can recheck
// dirty-set stability (syncsim.Checker.Recheck) over exactly the affected
// neighborhoods.
//
// Like SetState and InjectFaults it must run between rounds, on the
// goroutine driving the engine. Sharded and frontier rounds after the batch
// stay byte-identical to sequential dense rounds: the partition is layout
// only, and the frontier seeding is the same invariant a state change
// maintains.
func (e *Engine[S]) ApplyDelta(d *graph.Delta) ([]int, error) {
	if d.Graph() != e.g {
		return nil, fmt.Errorf("syncsim: delta wraps a different graph")
	}
	_, touched := d.Apply()
	if len(touched) == 0 {
		return nil, nil
	}
	if e.fr != nil {
		for _, v := range touched {
			e.invalidate(v)
		}
	}
	if pr := e.par; pr != nil {
		next, rebuilt := pr.part.RewireAfterChurn(&pr.churnAccum, touched)
		if rebuilt {
			e.mx.Repartitions.Add(1)
			pr.part = next
			if e.fr != nil {
				e.fr.set = e.fr.set.Rebuild(next.Starts(), next.ShardIndex())
			}
		}
	}
	return touched, nil
}

// FrontierLen returns the number of unsettled nodes of a frontier engine,
// or -1 when frontier mode is inactive.
func (e *Engine[S]) FrontierLen() int {
	if e.fr == nil {
		return -1
	}
	return e.fr.set.Len()
}

// Close releases the worker goroutines of a sharded engine (NewParallel
// with parallelism >= 1). It is idempotent and a no-op for classic engines.
func (e *Engine[S]) Close() {
	if e.par != nil {
		e.par.pool.Close()
	}
}

// Graph returns the underlying graph.
func (e *Engine[S]) Graph() *graph.Graph { return e.g }

// Round executes one synchronous round: every node senses the current
// configuration and all nodes update simultaneously. Nodes whose state
// actually changed are recorded for Changed. On a sharded engine the
// per-node computations fan out over the worker pool, one contiguous node
// range per shard; the Changed merge concatenates the per-shard lists in
// shard order, preserving ascending node order.
func (e *Engine[S]) Round() {
	if e.fr != nil {
		e.roundFrontier()
		return
	}
	if e.par != nil {
		e.roundSharded()
		return
	}
	e.changed = e.changed[:0]
	for v := 0; v < e.g.N(); v++ {
		e.next[v] = e.step(e.states[v], e.sense(v), e.rng)
		if e.next[v] != e.states[v] {
			e.changed = append(e.changed, v)
		}
	}
	e.states, e.next = e.next, e.states
	e.round++
	e.flushRound(e.g.N(), e.g.N(), len(e.changed))
}

// flushRound folds one completed round's tallies into the metric set and,
// if a tracer is attached, records the round sample (one allocation-free
// ring write; sink errors are sticky in traceErr).
func (e *Engine[S]) flushRound(act, eval, chg int) {
	m := e.mx
	m.Steps.Add(1)
	m.Rounds.Store(uint64(e.round))
	m.Activated.Add(uint64(act))
	m.Evaluated.Add(uint64(eval))
	m.Changes.Add(uint64(chg))
	if skip := act - eval; skip > 0 {
		m.FrontierSkips.Add(uint64(skip))
	}
	frLen := int64(-1)
	if e.fr != nil {
		frLen = int64(e.fr.set.Len())
		m.FrontierSize.Store(uint64(frLen))
	}
	e.flushCoins()
	if e.tracer != nil {
		err := e.tracer.Observe(obs.Sample{
			Step:        int64(e.round),
			Round:       int64(e.round),
			Activated:   int64(act),
			Evaluated:   int64(eval),
			Changes:     int64(chg),
			Frontier:    frLen,
			Violations:  -1,
			ClockSpread: -1,
		})
		if err != nil && e.traceErr == nil {
			e.traceErr = err
		}
	}
}

// flushCoins drains the rng draw counters into CoinDraws (O(P)).
func (e *Engine[S]) flushCoins() {
	if n := e.coin.Take(); n != 0 {
		e.mx.CoinDraws.Add(n)
	}
	if e.par != nil {
		for _, c := range e.par.coins {
			if n := c.Take(); n != 0 {
				e.mx.CoinDraws.Add(n)
			}
		}
	}
}

// roundFrontier is the frontier-sparse round body: only unsettled nodes are
// evaluated — staged against the immutable current configuration and then
// applied in place — so a quiescent round costs O(n/64) instead of O(n·Δ).
func (e *Engine[S]) roundFrontier() {
	fr := e.fr
	if e.par != nil {
		e.par.pool.Run(fr.stage)
		e.par.pool.Run(fr.applyInterior)
		e.changed = e.changed[:0]
		var eval, settles uint64
		for s := 0; s < e.par.part.P(); s++ {
			eval += fr.evalS[s]
			settles += fr.stlS[s]
			for i, v := range fr.dirtyS[s] {
				if e.par.part.Interior(v) {
					continue
				}
				if nx := fr.nextS[s][i]; nx != e.states[v] {
					e.states[v] = nx
					e.invalidate(v)
				}
			}
			e.changed = append(e.changed, fr.changedS[s]...)
		}
		if settles != 0 {
			e.mx.Settled.Add(settles)
		}
		e.round++
		e.flushRound(e.g.N(), int(eval), len(e.changed))
		return
	}
	fr.dirty = fr.set.AppendTo(fr.dirty[:0])
	fr.next = fr.next[:0]
	var settles uint64
	for _, v := range fr.dirty {
		sensed := e.sense(v)
		nx := e.step(e.states[v], sensed, e.rng)
		fr.next = append(fr.next, nx)
		if nx == e.states[v] && fr.settled(e.states[v], sensed) {
			fr.set.Remove(v)
			settles++
		}
	}
	if settles != 0 {
		e.mx.Settled.Add(settles)
	}
	e.changed = e.changed[:0]
	for i, v := range fr.dirty {
		if nx := fr.next[i]; nx != e.states[v] {
			e.states[v] = nx
			e.changed = append(e.changed, v)
			e.invalidate(v)
		}
	}
	e.round++
	e.flushRound(e.g.N(), len(fr.dirty), len(e.changed))
}

// roundSharded is the sharded round body: workers write disjoint ranges of
// the next-state buffer while the current configuration stays immutable, so
// the paper's simultaneous-update semantics hold by construction. Coin
// tosses come from per-(round, node) streams, making the result independent
// of worker count and goroutine interleaving.
func (e *Engine[S]) roundSharded() {
	pr := e.par
	pr.pool.Run(pr.body)
	e.states, e.next = e.next, e.states
	e.changed = e.changed[:0]
	for _, ch := range pr.changed {
		e.changed = append(e.changed, ch...)
	}
	e.round++
	e.flushRound(e.g.N(), e.g.N(), len(e.changed))
}

// sense returns the deduplicated state set of N+(v).
func (e *Engine[S]) sense(v int) []S { return e.senseInto(&e.buf, v) }

// senseInto computes the deduplicated state set of N+(v) into *buf (each
// worker of a sharded engine owns its own buffer).
func (e *Engine[S]) senseInto(buf *[]S, v int) []S {
	b := (*buf)[:0]
	b = append(b, e.states[v])
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
	*buf = b
	return b
}

// Rounds returns the number of rounds executed.
func (e *Engine[S]) Rounds() int { return e.round }

// Steps returns the number of scheduler steps executed; under the synchronous
// schedule steps and rounds coincide. It exists so campaign runners can drive
// synchronous and asynchronous engines through one generic interface.
func (e *Engine[S]) Steps() int { return e.round }

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
		if e.fr != nil {
			e.invalidate(v)
		}
	}
	e.mx.Faults.Add(uint64(len(hit)))
	e.flushCoins()
	return hit
}

// State returns the current state of node v.
func (e *Engine[S]) State(v int) S { return e.states[v] }

// States returns a copy of the current configuration.
func (e *Engine[S]) States() []S {
	out := make([]S, len(e.states))
	copy(out, e.states)
	return out
}

// View returns the engine-owned current configuration without copying. The
// slice must be treated as read-only and is only valid until the next Round,
// SetState or InjectFaults. It exists so per-step stability checks stay
// allocation-free.
func (e *Engine[S]) View() []S { return e.states }

// Changed returns the nodes whose state changed in the most recent Round.
// The slice is owned by the engine and valid until the next Round. It is
// the dirty set that incremental stability checks recheck.
func (e *Engine[S]) Changed() []int { return e.changed }

// SetState overwrites the state of node v (transient fault injection).
func (e *Engine[S]) SetState(v int, s S) {
	e.states[v] = s
	if e.fr != nil {
		e.invalidate(v)
	}
}

// RunUntil runs rounds until cond holds (checked between rounds) or the
// budget is exhausted; it reports the rounds consumed and whether cond held.
func (e *Engine[S]) RunUntil(cond func(e *Engine[S]) bool, maxRounds int) (int, bool) {
	start := e.round
	if cond(e) {
		return 0, true
	}
	for e.round-start < maxRounds {
		e.Round()
		if cond(e) {
			return e.round - start, true
		}
	}
	e.mx.BudgetExhausted.Add(1)
	return maxRounds, false
}

// Sensed is a helper for node programs: it reports whether any sensed state
// satisfies pred.
func Sensed[S comparable](sensed []S, pred func(S) bool) bool {
	for _, s := range sensed {
		if pred(s) {
			return true
		}
	}
	return false
}

// MinSensed returns the minimum of f over the sensed states.
func MinSensed[S comparable](sensed []S, f func(S) int) int {
	best := f(sensed[0])
	for _, s := range sensed[1:] {
		if v := f(s); v < best {
			best = v
		}
	}
	return best
}
