// Package sim executes stone age algorithms on graphs under adversarial
// schedulers, exactly following the discrete-step semantics of the paper:
// at step t every activated node reads the configuration C_t (its signal)
// and all activated nodes update simultaneously to produce C_{t+1}.
//
// The engine is deterministic given its seed, tracks rounds via the round
// operator ϱ, and exposes hooks for invariant checking and tracing. Its hot
// path is incremental and allocation-free: steps stage updates in reusable
// scratch (no per-step configuration copy), and registered ConfigObservers
// receive each node state change so stabilization predicates are maintained
// in O(|A_t|·Δ) per step rather than rescanned over the whole graph.
//
// Every execution mode runs one step loop (step.go) with two plugs:
//
//   - Activation source. Dense engines evaluate A_t; frontier-sparse
//     engines (Options.Frontier) evaluate only A_t ∩ frontier, where the
//     frontier holds the nodes whose δ on the current signal is not yet
//     certified a coin-free self-loop (the algorithm's sa.SelfLooper
//     capability), so a step costs O(|A_t ∩ frontier|·Δ).
//   - Evaluator. The scalar δ, or the algorithm's word kernel
//     (Options.WordParallel, see word.go), which also maintains a goodness
//     plane that certifies full-refresh steps.
//
// δ draws its coin tosses from the engine's one rng stream, in ascending
// activation order, in every mode. (The per-(step, node) coin source of the
// MIS/LE programs belongs to internal/asyncsim.) The modes compose freely
// and stay byte-identical to one another for equal seeds; the dense scalar
// reference stepper in the package tests scores every combination against
// the paper's step rule.
//
// The topology itself may churn mid-run: Options.Churn applies a stochastic
// stream of graph.Delta mutations at step boundaries (cells die, divide
// back, links rewire), repairing the frontier and the registered observer
// in the same motion — see churn.go and Engine.ApplyDelta, which a caller
// may also drive with its own delta between steps (internal/bio does).
// Churn draws from its own rng, so churn runs remain byte-identical across
// all execution modes. sim is the one engine with churn.
//
// Every combination of the frontier and word modes is checkpointable:
// Engine.SaveState serializes the full run state at a step boundary
// (configuration, topology, frontier members, round tracker, rng stream
// states, scheduler position) and Restore rebuilds an engine in a fresh
// process that continues the run byte-identically — run K steps,
// snapshot, restore, run K more ≡ an uninterrupted 2K-step run. An engine
// with churn is not checkpointable: no program saves one, and SaveState
// refuses it. This is the repo's one engine checkpoint, and Restore
// accepts only states a run can reach. See snapshot.go; the restore matrix runs in go test here:
// TestRestoreDifferential, TestRestoreRejectsInconsistentState and
// FuzzRestore.
package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"thinunison/internal/failpoint"
	"thinunison/internal/frontier"
	"thinunison/internal/graph"
	"thinunison/internal/obs"
	"thinunison/internal/randx"
	"thinunison/internal/sa"
	"thinunison/internal/sched"
)

// ErrBudgetExhausted is returned by RunUntil when the predicate did not hold
// within the allotted number of rounds.
var ErrBudgetExhausted = errors.New("sim: round budget exhausted before condition held")

// evalFailpoints evaluates the engine's chaos site at a step boundary. Only
// called when a failpoint schedule is armed.
func (e *Engine) evalFailpoints() error {
	if f := failpoint.Eval(failpoint.SimStep); f.Kind != failpoint.None {
		if f.Kind == failpoint.FailPanic {
			panic(f)
		}
		return fmt.Errorf("sim: step %d: %w", e.step, f.Err())
	}
	return nil
}

// Hook observes the engine after each step. Hooks may record traces or check
// invariants; returning an error aborts the run.
type Hook func(e *Engine) error

// ConfigObserver is notified of every individual node state change the
// engine performs — scheduler steps, SetState, and InjectFaults alike. It is
// the incremental counterpart of a post-step Hook: observers such as
// core.GoodMonitor maintain violation counters in O(deg v) per change, so
// stabilization predicates need no per-step full-graph rescan.
//
// Ordering contract: within a step, the changes of the simultaneously
// updating activation set are delivered one node at a time, in ascending
// node order, each node at most once — regardless of the order (or
// duplication) of the scheduler's activation list. SetState and
// InjectFaults deliver in call order.
type ConfigObserver interface {
	// Apply records that node v now holds state q.
	Apply(v int, q sa.State)
}

// Engine drives one execution of an sa.Algorithm.
type Engine struct {
	g     *graph.Graph
	alg   sa.Algorithm
	sched sched.Scheduler
	rng   *rand.Rand

	cfg     sa.Config
	step    int
	tracker *sched.RoundTracker
	hooks   []Hook
	obs     ConfigObserver

	faultBuf []int // reusable permutation buffer for InjectFaults
	actBuf   []int // canonicalization buffer for unsorted activation lists

	// Step-loop scratch (see step.go): the staged next states of the
	// evaluation list, which apply overwrites with the nodes it changed,
	// and the scalar signal. Both are reused across steps.
	res []sa.State
	sig sa.Signal

	fr     *frontierRuntime  // frontier-sparse runtime; nil in dense mode
	churn  *churnRuntime     // topology-churn runtime; nil when Options.Churn is off
	wr     *wordRuntime      // word-parallel runtime; nil in scalar mode
	wBatch WordBatchObserver // obs, when it takes certified steps as one batch

	// mx is the engine's metric set — always non-nil (allocated at New when
	// Options.Metrics is nil). The step loop counts into tally, which
	// publish moves into mx (see obs.Tally for when). tracer is nil unless
	// Options.Trace attached one.
	mx     *obs.Metrics
	tally  obs.Tally
	tracer *obs.Tracer
	src    *randx.Source   // the rng stream, checkpointed by its state
	coin   *randx.Counting // draw tally over src

	// stepAct/stepEval/stepChg are the current step's counts, filled by the
	// step loop and added to the tally (and the tracer sample) once per step.
	stepAct  int
	stepEval int
	stepChg  int

	// topoEnc is SaveState's memo of the encoded CSR arrays (a copy, not
	// the arrays), reused until ApplyDelta commits a change; nil before the
	// first save. saveSize is the previous save's engine-section length,
	// which sizes the next one's buffer.
	topoEnc  []byte
	saveSize int
}

// frontierRuntime holds the frontier-sparse execution state of an engine:
// the dirty set of unsettled nodes and the algorithm's self-loop certifier.
// A node leaves the frontier when an evaluation certifies its (state,
// signal) pair as a deterministic coin-free self-loop, and re-enters
// whenever it or a neighbor changes state or suffers a fault: the write
// walks v's CSR list once and ORs N[v] into the set (frontier.Set.AddClosed),
// in O(deg v) with one count update.
type frontierRuntime struct {
	set     *frontier.Set
	looper  sa.SelfLooper
	settler sa.Settler // non-nil when the algorithm fuses δ and the certificate

	evalBuf []int // A_t ∩ frontier scratch for non-sparse schedulers
}

// Options configures an Engine.
type Options struct {
	// Initial is the adversarially chosen initial configuration C0.
	// If nil, a uniformly random configuration is drawn from the engine's
	// rng (the standard self-stabilization benchmark initialization).
	Initial sa.Config

	// Scheduler decides activation sets. If nil, the synchronous scheduler
	// is used.
	Scheduler sched.Scheduler

	// Seed seeds the engine's private rng (coin tosses and, if Initial is
	// nil, the initial configuration).
	Seed int64

	// Parallelism is ignored: the engine runs on its caller's goroutine
	// and δ always draws from the one rng stream. It is kept so that
	// existing callers, such as the benchmark module, still build. The
	// per-(step, node) coin source lives in internal/asyncsim, where the
	// coin-driven MIS/LE programs run.
	Parallelism int

	// Frontier enables frontier-sparse execution: the engine maintains a
	// per-node settled flag (node v is settled when δ applied to its current
	// signal is deterministically a self-loop with no coin toss, as certified
	// by the algorithm's sa.SelfLooper capability) and skips settled
	// activated nodes wholesale, so a step costs O(|A_t ∩ frontier|·Δ)
	// instead of O(|A_t|·Δ). Schedulers implementing sched.SparseActivator
	// additionally stop materializing O(n) activation slices.
	//
	// Frontier runs are byte-identical to dense runs of the same seed: a
	// skipped node provably keeps its state and — by the SelfLooper
	// contract — would have consumed no randomness, so the rng stream is
	// undisturbed. The differential harness in internal/sim and
	// internal/campaign enforces this.
	//
	// The option is ignored (dense execution) when the algorithm does not
	// implement sa.SelfLooper.
	Frontier bool

	// WordParallel enables word-parallel execution: when the algorithm
	// implements sa.WordKernel and its state space fits in a machine word,
	// each step's signals are built by a CSR OR-scan over per-node one-word
	// self-signals and δ is evaluated by the algorithm's batch kernel from
	// precompiled masks, instead of the scalar per-node Signal construction
	// and transition decoding. The kernel contract (deterministic, coin-free,
	// next == cur ⟺ settled) makes word runs byte-identical to scalar runs
	// of the same seed in every mode — dense or frontier, with or without
	// churn — which the differential suites and the word cells of campaign
	// -check enforce.
	//
	// The fused goodness plane additionally certifies full-refresh steps,
	// and the engine hands a certified step's changes to a
	// WordBatchObserver such as core.GoodMonitor in one call (see word.go)
	// instead of n per-node Apply calls.
	//
	// The option is silently ignored (scalar execution) when the algorithm
	// does not implement sa.WordKernel or Kernel() returns nil (|Q| > 64).
	WordParallel bool

	// Metrics, when non-nil, receives the engine's counters (see obs.Metrics
	// for the catalog). When nil the engine allocates a private set —
	// counters are always maintained, so instrumented and uninstrumented
	// runs execute identical code — reachable via Engine.Metrics.
	//
	// The step counters are published at call boundaries (obs.Tally): the
	// set is exact whenever no engine call is running. Read from inside a
	// RunUntil cond, a hook or another goroutine, Steps trails StepCount by
	// less than obs.PublishSteps, and every counter only grows.
	Metrics *obs.Metrics

	// Trace attaches a sampled step tracer / flight recorder. After every
	// step the engine feeds it a cheap snapshot (activation, evaluation and
	// change counts, frontier occupancy); the tracer's ring write is
	// allocation-free and its sink sampling is keyed by step number only,
	// so traced runs stay byte-identical to untraced ones in every mode.
	Trace *obs.Tracer

	// Churn enables mid-run topology churn: the spec's stochastic edge
	// flips, crashes and revivals are applied at step boundaries through
	// ApplyDelta, so every incremental layer (frontier, observer counters)
	// is repaired in the same motion. nil (or an empty spec) freezes the
	// topology, the classic behavior. Churn draws from its own rng
	// (ChurnSpec.Seed), so churn runs remain byte-identical across
	// execution modes (dense/frontier, scalar/word) exactly like
	// churn-free runs. SaveState refuses an engine with churn.
	Churn *ChurnSpec

	// restoring is set only by Checkpoint.Restore: ReadCheckpoint already
	// validated the topology once for all its engines, so New skips
	// Validate, and Restore brings the round tracker
	// (sched.RestoreRoundTracker), so New leaves it nil rather than build n
	// ints that are replaced at once.
	restoring bool
}

// New returns an engine for alg on g.
func New(g *graph.Graph, alg sa.Algorithm, opts Options) (*Engine, error) {
	if !opts.restoring {
		if err := g.Validate(); err != nil {
			return nil, err
		}
	}
	s := opts.Scheduler
	if s == nil {
		s = sched.NewSynchronous()
	}
	// The stream is a randx.Source: it draws what rand.NewSource draws, and
	// a checkpoint saves its state. The counting wrapper is a pass-through
	// that tallies the draws for the CoinDraws counter.
	src := randx.NewSource(opts.Seed)
	coin := randx.NewCounting(src)
	rng := rand.New(coin)
	cfg := opts.Initial
	if cfg == nil {
		cfg = sa.Random(g.N(), alg.NumStates(), rng)
	} else {
		if len(cfg) != g.N() {
			return nil, fmt.Errorf("sim: initial configuration has %d states for %d nodes", len(cfg), g.N())
		}
		for v, q := range cfg {
			if q < 0 || q >= alg.NumStates() {
				return nil, fmt.Errorf("sim: initial state %d of node %d out of range [0,%d)", q, v, alg.NumStates())
			}
		}
		cfg = cfg.Clone()
	}
	e := &Engine{
		g:      g,
		alg:    alg,
		sched:  s,
		rng:    rng,
		cfg:    cfg,
		mx:     opts.Metrics,
		tracer: opts.Trace,
		src:    src,
		coin:   coin,
		sig:    sa.NewSignal(alg.NumStates()),
	}
	if e.mx == nil {
		e.mx = &obs.Metrics{}
	}
	if !opts.restoring {
		e.tracker = sched.NewRoundTracker(g.N())
	}
	if opts.Frontier {
		if lp, ok := alg.(sa.SelfLooper); ok {
			e.fr = &frontierRuntime{looper: lp}
			if st, ok := alg.(sa.Settler); ok {
				e.fr.settler = st
			}
		}
	}
	if e.fr != nil {
		e.fr.set = frontier.New(g.N())
		e.fr.set.Fill() // nothing is certified yet: every node starts dirty
	}
	if opts.Churn.active() {
		e.churn = newChurnRuntime(g, *opts.Churn)
	}
	if opts.WordParallel {
		if wk, ok := alg.(sa.WordKernel); ok {
			if kern := wk.Kernel(); kern != nil {
				e.wr = newWordRuntime(e, kern)
			}
		}
	}
	return e, nil
}

// evalNode runs δ for node v together with the frontier certificate: the
// next state plus whether v settles (its (state, signal) pair is a
// certified coin-free self-loop). Algorithms implementing sa.Settler fuse
// the two into one δ evaluation; otherwise the certificate costs a second
// SelfLoop call on no-op transitions only.
func (fr *frontierRuntime) evalNode(e *Engine, v int, sig *sa.Signal, rng *rand.Rand) (sa.State, bool) {
	if fr.settler != nil {
		return fr.settler.TransitionSettled(e.cfg[v], *sig, rng)
	}
	q := e.alg.Transition(e.cfg[v], *sig, rng)
	return q, q == e.cfg[v] && fr.looper.SelfLoop(e.cfg[v], *sig)
}

// Close is a no-op: the engine runs on its caller's goroutine and holds
// nothing to release. It is kept so that existing callers, such as the
// benchmark module, still build.
func (e *Engine) Close() {}

// AddHook registers a post-step hook.
func (e *Engine) AddHook(h Hook) { e.hooks = append(e.hooks, h) }

// Observe registers the engine's configuration observer (at most one; nil
// unregisters). The observer must already reflect the engine's current
// configuration — construct it from Config(), e.g. core.NewGoodMonitor.
func (e *Engine) Observe(o ConfigObserver) {
	e.obs = o
	e.wBatch, _ = o.(WordBatchObserver)
}

// Graph returns the underlying graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Algorithm returns the algorithm under execution.
func (e *Engine) Algorithm() sa.Algorithm { return e.alg }

// Config returns the current configuration. The slice is owned by the
// engine; clone it before mutating.
func (e *Engine) Config() sa.Config { return e.cfg }

// SetState overwrites the state of node v in the current configuration.
// It models a transient fault (adversarial state corruption).
func (e *Engine) SetState(v int, q sa.State) error {
	if v < 0 || v >= e.g.N() {
		return fmt.Errorf("sim: node %d out of range", v)
	}
	if q < 0 || q >= e.alg.NumStates() {
		return fmt.Errorf("sim: state %d out of range", q)
	}
	e.write(v, q)
	if e.obs != nil {
		e.obs.Apply(v, q)
	}
	return nil
}

// InjectFaults corrupts count distinct random nodes to uniformly random
// states, returning the affected nodes. It models a burst of transient
// faults mid-execution. The count is clamped to [0, n]: negative counts
// inject nothing rather than panicking.
//
// The victims are drawn by a partial Fisher–Yates shuffle over a reusable
// buffer, so repeated bursts allocate nothing and cost O(count) rather than
// O(n). The returned slice is owned by the engine and valid until the next
// call.
func (e *Engine) InjectFaults(count int) []int {
	hit := randx.PartialShuffle(&e.faultBuf, e.g.N(), count, e.rng)
	for _, v := range hit {
		e.write(v, e.rng.Intn(e.alg.NumStates()))
		if e.obs != nil {
			e.obs.Apply(v, e.cfg[v])
		}
	}
	e.mx.Faults.Add(uint64(len(hit)))
	e.tally.CoinDraws += e.coin.Take()
	e.publish()
	return hit
}

// tallyStep adds the completed step's counts to the tally, publishes it
// when due, and, if a tracer is attached, records the step sample. It runs
// once per step: the hot path pays a few plain adds plus one
// allocation-free ring write, independent of n.
func (e *Engine) tallyStep() error {
	t := &e.tally
	t.Steps++
	t.Rounds = uint64(e.tracker.Rounds())
	t.Activated += uint64(e.stepAct)
	t.Evaluated += uint64(e.stepEval)
	t.Changes += uint64(e.stepChg)
	if skip := e.stepAct - e.stepEval; skip > 0 {
		t.FrontierSkips += uint64(skip)
	}
	frLen := int64(-1)
	if e.fr != nil {
		frLen = int64(e.fr.set.Len())
	}
	t.FrontierSize = frLen
	if e.wr != nil {
		t.WordSteps++
	}
	t.CoinDraws += e.coin.Take()
	if t.Due(e.g.N()) {
		e.publish()
	}
	if e.tracer != nil {
		s := obs.Sample{
			Step:        int64(e.step),
			Round:       int64(e.tracker.Rounds()),
			Activated:   int64(e.stepAct),
			Evaluated:   int64(e.stepEval),
			Changes:     int64(e.stepChg),
			Frontier:    frLen,
			Violations:  -1,
			ClockSpread: -1,
		}
		if err := e.tracer.Observe(s); err != nil {
			return fmt.Errorf("sim: trace at step %d: %w", e.step, err)
		}
	}
	return nil
}

// publish moves the tally into the metric set.
func (e *Engine) publish() { e.tally.Publish(e.mx) }

// Metrics publishes the tally and returns the engine's metric set (never
// nil), exact at this call. Like every engine method it must be called on
// the goroutine driving the engine; another goroutine may read the returned
// set at any time (see Options.Metrics).
func (e *Engine) Metrics() *obs.Metrics {
	e.publish()
	return e.mx
}

// Tracer returns the attached step tracer, or nil.
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// SignalOf computes the signal of node v under the current configuration
// into sig, overwriting what it held. A signal of one word (|Q| <= 64, as
// for AlgAU with D <= 4) is ORed together in a local word, one 1 << state
// per node of N[v], and stored once; one of two words (|Q| <= 128, AlgAU
// with D <= 10) likewise in a local pair, each state setting its bit in
// one word and shifting out of the other (Go shifts a uint64 by 64 or more
// to 0, and q−64 wraps around for q < 64). A wider one is reset and set
// state by state.
func (e *Engine) SignalOf(v int, sig *sa.Signal) {
	cfg := e.cfg
	switch w := sig.Words(); len(w) {
	case 1:
		x := uint64(1) << uint(cfg[v])
		for _, u := range e.g.Neighbors(v) {
			x |= 1 << uint(cfg[u])
		}
		w[0] = x
		return
	case 2:
		q := uint(cfg[v])
		x0, x1 := uint64(1)<<q, uint64(1)<<(q-64)
		for _, u := range e.g.Neighbors(v) {
			q := uint(cfg[u])
			x0 |= 1 << q
			x1 |= 1 << (q - 64)
		}
		w[0], w[1] = x0, x1
		return
	}
	sig.Reset()
	sig.Set(cfg[v])
	for _, u := range e.g.Neighbors(v) {
		sig.Set(cfg[u])
	}
}

// StepCount returns the number of steps executed so far (the current time t).
func (e *Engine) StepCount() int { return e.step }

// Rounds returns the number of completed rounds R(i) <= current time.
func (e *Engine) Rounds() int { return e.tracker.Rounds() }

// WordActive reports whether the engine executes on the word-parallel kernel
// path (Options.WordParallel set and the algorithm offered a kernel).
func (e *Engine) WordActive() bool { return e.wr != nil }

// RunRounds executes steps until the given number of additional rounds have
// completed. It publishes the step counters as RunUntil does.
func (e *Engine) RunRounds(rounds int) error {
	defer e.publish()
	target := e.tracker.Rounds() + rounds
	for e.tracker.Rounds() < target {
		if err := e.advance(); err != nil {
			return err
		}
	}
	return nil
}

// RunUntil executes steps until cond holds (checked after every step) or
// maxRounds rounds elapse, returning the number of rounds consumed. If the
// budget is exhausted it returns ErrBudgetExhausted.
//
// The step counters are exact in the metric set when RunUntil returns.
// While it runs they are published every obs.PublishSteps steps or n
// activations, whichever comes first, so a cond (or another goroutine)
// reading the set directly sees Steps trail StepCount by less than
// obs.PublishSteps; a cond that needs exact counts calls e.Metrics().
func (e *Engine) RunUntil(cond func(e *Engine) bool, maxRounds int) (int, error) {
	defer e.publish()
	start := e.tracker.Rounds()
	if cond(e) {
		return 0, nil
	}
	for e.tracker.Rounds()-start < maxRounds {
		if err := e.advance(); err != nil {
			return e.tracker.Rounds() - start, err
		}
		if cond(e) {
			return e.tracker.Rounds() - start, nil
		}
	}
	e.mx.BudgetExhausted.Add(1)
	return e.tracker.Rounds() - start, ErrBudgetExhausted
}
