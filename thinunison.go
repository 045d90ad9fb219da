package thinunison

import (
	"fmt"
	"math/rand"

	"thinunison/internal/asyncsim"
	"thinunison/internal/budget"
	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/le"
	"thinunison/internal/mis"
	"thinunison/internal/randx"
	"thinunison/internal/restart"
	"thinunison/internal/sched"
	"thinunison/internal/sim"
	"thinunison/internal/stats"
	"thinunison/internal/synchronizer"
	"thinunison/internal/syncsim"
)

// Graph is a finite simple connected undirected graph (see the builders
// below). It is an alias of the internal graph type, so all its methods
// (Diameter, Neighbors, BFS, …) are available to users of this package.
type Graph = graph.Graph

// Scheduler is an asynchronous activation scheduler (a "daemon").
type Scheduler = sched.Scheduler

// Graph builders re-exported from the graph substrate.
var (
	// NewGraph builds a graph from an explicit edge list.
	NewGraph = graph.New
	// Path returns the path graph P_n.
	Path = graph.Path
	// Cycle returns the cycle graph C_n (n >= 3).
	Cycle = graph.Cycle
	// Star returns the star on n nodes, node 0 at the center.
	Star = graph.Star
	// Complete returns the complete graph K_n.
	Complete = graph.Complete
	// Grid returns the rows x cols grid graph.
	Grid = graph.Grid
	// RandomConnected returns a random connected graph (spanning tree + G(n,p)).
	RandomConnected = graph.RandomConnected
	// BoundedDiameter returns a connected graph with diameter exactly d.
	BoundedDiameter = graph.BoundedDiameter
)

// Scheduler constructors re-exported from the scheduler substrate.
var (
	// Synchronous activates every node every step.
	Synchronous = sched.NewSynchronous
	// RoundRobin activates one node per step in cyclic order.
	RoundRobin = sched.NewRoundRobin
	// RandomSubset activates each node with probability p per step
	// (force-activating nodes that starve for maxGap steps), drawing its
	// coins from an rng seeded with seed.
	RandomSubset = sched.NewRandomSubsetSeeded
	// Laggard starves one node to a single activation per period.
	Laggard = sched.NewLaggard
)

// Option configures the facade constructors.
type Option func(*options)

type options struct {
	d     int
	seed  int64
	sched sched.Scheduler
}

// WithDiameterBound fixes the diameter bound D the algorithm is
// parameterized with; the default is the graph's own diameter.
func WithDiameterBound(d int) Option { return func(o *options) { o.d = d } }

// WithSeed seeds all randomness (coin tosses and adversarial initial
// configurations). The default seed is 0.
func WithSeed(seed int64) Option { return func(o *options) { o.seed = seed } }

// WithScheduler selects the activation scheduler; the default is the
// synchronous one.
func WithScheduler(s Scheduler) Option { return func(o *options) { o.sched = s } }

func buildOptions(g *Graph, opts []Option) (options, error) {
	o := options{}
	for _, f := range opts {
		f(&o)
	}
	if o.d == 0 {
		o.d = g.Diameter()
		if o.d < 1 {
			o.d = 1
		}
	}
	if got := g.Diameter(); got > o.d {
		return o, fmt.Errorf("thinunison: graph diameter %d exceeds bound %d", got, o.d)
	}
	return o, nil
}

// Unison is a running AlgAU instance: a self-stabilizing pulse clock over a
// graph. It starts from an arbitrary (random) configuration — no
// initialization coordination — and stabilizes to synchronized ±1 clocks.
type Unison struct {
	au  *core.AU
	g   *Graph
	eng *sim.Engine
	mon *core.GoodMonitor
}

// NewUnison starts AlgAU on g from an adversarial random configuration.
func NewUnison(g *Graph, opts ...Option) (*Unison, error) {
	o, err := buildOptions(g, opts)
	if err != nil {
		return nil, err
	}
	au, err := core.NewAU(o.d)
	if err != nil {
		return nil, err
	}
	eng, err := sim.New(g, au, sim.Options{Scheduler: o.sched, Seed: o.seed, Frontier: true})
	if err != nil {
		return nil, err
	}
	// The incremental monitor keeps the stabilization predicate O(1) per
	// check: the engine streams every node state change into it, so no step
	// ever triggers a full-graph GraphGood rescan.
	mon := core.NewGoodMonitor(au, g, eng.Config())
	eng.Observe(mon)
	return &Unison{au: au, g: g, eng: eng, mon: mon}, nil
}

// D returns the diameter bound.
func (u *Unison) D() int { return u.au.D() }

// States returns the number of states of the underlying algorithm
// (12D + 6 — the "thin" in the paper's title).
func (u *Unison) States() int { return u.au.NumStates() }

// ClockOrder returns the order 2k of the cyclic clock group K.
func (u *Unison) ClockOrder() int { return u.au.ClockOrder() }

// Step executes one scheduler step.
func (u *Unison) Step() error { return u.eng.Step() }

// Rounds returns the number of completed asynchronous rounds.
func (u *Unison) Rounds() int { return u.eng.Rounds() }

// Stabilized reports whether the clock has stabilized (the graph is good:
// from here on, safety and liveness of the AU task hold forever). The check
// is O(1): the incremental monitor tracks violations as the engine runs.
func (u *Unison) Stabilized() bool {
	return u.mon.Good()
}

// RunUntilStabilized runs until stabilization, returning the rounds taken.
func (u *Unison) RunUntilStabilized(maxRounds int) (int, error) {
	return u.eng.RunUntil(func(*sim.Engine) bool {
		return u.mon.Good()
	}, maxRounds)
}

// RunRounds executes the given number of additional rounds.
func (u *Unison) RunRounds(rounds int) error { return u.eng.RunRounds(rounds) }

// Clocks returns each node's clock value in {0, …, 2k−1}, or -1 for nodes
// currently in faulty (non-output) states.
func (u *Unison) Clocks() []int {
	cfg := u.eng.Config()
	out := make([]int, len(cfg))
	for v, q := range cfg {
		if u.au.IsOutput(q) {
			out[v] = u.au.Output(q)
		} else {
			out[v] = -1
		}
	}
	return out
}

// Steps returns the number of scheduler steps executed so far (the current
// time t; rounds are the scheduler-independent measure, steps the raw one).
func (u *Unison) Steps() int { return u.eng.StepCount() }

// InjectFaults corrupts count random nodes to arbitrary states (a transient
// fault burst), returning the affected nodes; count is clamped to [0, n].
// Self-stabilization guarantees recovery; measure it with
// RunUntilStabilized.
func (u *Unison) InjectFaults(count int) []int { return u.eng.InjectFaults(count) }

// StabilizationBudget returns a round budget within which stabilization is
// guaranteed for this instance (a concrete constant for the paper's O(D³)).
// The cubic saturates at math.MaxInt for huge D instead of overflowing.
func (u *Unison) StabilizationBudget() int {
	return budget.AU(u.au.K())
}

// MISResult is the output of SolveMIS.
type MISResult struct {
	// InSet holds the nodes elected into the maximal independent set.
	InSet []int
	// Rounds is the number of rounds until the output stabilized.
	Rounds int
}

// SolveMIS runs the self-stabilizing AlgMIS (Theorem 1.4) on g from an
// adversarial configuration until its output is a stable MIS. If an
// asynchronous scheduler option is given, the algorithm runs through the
// synchronizer of Corollary 1.2; otherwise it runs synchronously.
func SolveMIS(g *Graph, opts ...Option) (MISResult, error) {
	o, err := buildOptions(g, opts)
	if err != nil {
		return MISResult{}, err
	}
	alg, err := mis.New(mis.Params{D: o.d})
	if err != nil {
		return MISResult{}, err
	}
	rng := rand.New(randx.NewSource(o.seed))
	roundBudget := taskBudget(o.d, g.N())

	if o.sched == nil {
		initial := make([]restart.State[mis.State], g.N())
		for v := range initial {
			initial[v] = alg.RandomState(rng)
		}
		eng, err := asyncsim.New(g, alg.Step, initial, nil, o.seed)
		if err != nil {
			return MISResult{}, err
		}
		chk := syncsim.NewChecker(g, func(v int) (bool, int) {
			return mis.LocalStable(g, eng.View(), v), 0
		})
		rounds, ok := eng.RunUntil(func(e *asyncsim.Engine[restart.State[mis.State]]) bool {
			chk.Recheck(e.Changed())
			return chk.AllOK()
		}, roundBudget)
		if !ok {
			return MISResult{}, fmt.Errorf("thinunison: MIS did not stabilize within %d rounds", roundBudget)
		}
		return MISResult{InSet: mis.InSet(eng.States()), Rounds: rounds}, nil
	}

	sy, err := synchronizer.New[restart.State[mis.State]](o.d, alg.Step)
	if err != nil {
		return MISResult{}, err
	}
	initial := make([]synchronizer.State[restart.State[mis.State]], g.N())
	for v := range initial {
		initial[v] = synchronizer.State[restart.State[mis.State]]{
			Cur:  alg.RandomState(rng),
			Prev: alg.RandomState(rng),
			Turn: rng.Intn(sy.AU().NumStates()),
		}
	}
	eng, err := asyncsim.New(g, sy.Step, initial, o.sched, o.seed)
	if err != nil {
		return MISResult{}, err
	}
	roundBudget = stats.SatAdd(roundBudget, budget.Synchronizer(o.d))
	prj := syncsim.NewProjected(g, eng.View,
		func(st synchronizer.State[restart.State[mis.State]]) restart.State[mis.State] { return st.Cur },
		func(pi []restart.State[mis.State], v int) (bool, int) { return mis.LocalStable(g, pi, v), 0 })
	rounds, ok := eng.RunUntil(func(e *asyncsim.Engine[synchronizer.State[restart.State[mis.State]]]) bool {
		prj.Update(e.Changed())
		return prj.Checker().AllOK()
	}, roundBudget)
	if !ok {
		return MISResult{}, fmt.Errorf("thinunison: asynchronous MIS did not stabilize within %d rounds", roundBudget)
	}
	return MISResult{InSet: mis.InSet(prj.States()), Rounds: rounds}, nil
}

// LEResult is the output of SolveLeaderElection.
type LEResult struct {
	// Leader is the elected node.
	Leader int
	// Rounds is the number of rounds until the output stabilized.
	Rounds int
}

// SolveLeaderElection runs the self-stabilizing AlgLE (Theorem 1.3) on g
// from an adversarial configuration until exactly one leader is stable.
// With an asynchronous scheduler option the algorithm runs through the
// synchronizer of Corollary 1.2.
func SolveLeaderElection(g *Graph, opts ...Option) (LEResult, error) {
	o, err := buildOptions(g, opts)
	if err != nil {
		return LEResult{}, err
	}
	alg, err := le.New(le.Params{D: o.d})
	if err != nil {
		return LEResult{}, err
	}
	rng := rand.New(randx.NewSource(o.seed))
	roundBudget := taskBudget(o.d, g.N())

	leEval := func(s restart.State[le.State]) (bool, int) {
		ok, leader := le.LocalStable(s)
		if leader {
			return ok, 1
		}
		return ok, 0
	}
	if o.sched == nil {
		initial := make([]restart.State[le.State], g.N())
		for v := range initial {
			initial[v] = alg.RandomState(rng)
		}
		eng, err := asyncsim.New(g, alg.Step, initial, nil, o.seed)
		if err != nil {
			return LEResult{}, err
		}
		chk := syncsim.NewChecker(g, func(v int) (bool, int) {
			return leEval(eng.View()[v])
		})
		rounds, ok := eng.RunUntil(func(e *asyncsim.Engine[restart.State[le.State]]) bool {
			chk.Recheck(e.Changed())
			return chk.AllOK() && chk.Sum() == 1
		}, roundBudget)
		if !ok {
			return LEResult{}, fmt.Errorf("thinunison: LE did not stabilize within %d rounds", roundBudget)
		}
		return LEResult{Leader: le.Leaders(eng.States())[0], Rounds: rounds}, nil
	}

	sy, err := synchronizer.New[restart.State[le.State]](o.d, alg.Step)
	if err != nil {
		return LEResult{}, err
	}
	initial := make([]synchronizer.State[restart.State[le.State]], g.N())
	for v := range initial {
		initial[v] = synchronizer.State[restart.State[le.State]]{
			Cur:  alg.RandomState(rng),
			Prev: alg.RandomState(rng),
			Turn: rng.Intn(sy.AU().NumStates()),
		}
	}
	eng, err := asyncsim.New(g, sy.Step, initial, o.sched, o.seed)
	if err != nil {
		return LEResult{}, err
	}
	roundBudget = stats.SatAdd(roundBudget, budget.Synchronizer(o.d))
	prj := syncsim.NewProjected(g, eng.View,
		func(st synchronizer.State[restart.State[le.State]]) restart.State[le.State] { return st.Cur },
		func(pi []restart.State[le.State], v int) (bool, int) { return leEval(pi[v]) })
	rounds, ok := eng.RunUntil(func(e *asyncsim.Engine[synchronizer.State[restart.State[le.State]]]) bool {
		prj.Update(e.Changed())
		c := prj.Checker()
		return c.AllOK() && c.Sum() == 1
	}, roundBudget)
	if !ok {
		return LEResult{}, fmt.Errorf("thinunison: asynchronous LE did not stabilize within %d rounds", roundBudget)
	}
	return LEResult{Leader: le.Leaders(prj.States())[0], Rounds: rounds}, nil
}

// taskBudget is the generous Theorem 1.3/1.4 round budget, saturating at
// math.MaxInt for degenerate (huge-D) inputs instead of wrapping negative.
func taskBudget(d, n int) int {
	return budget.Task(d, n)
}
