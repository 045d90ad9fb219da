package thinunison

import (
	"fmt"
	"math/rand"

	"thinunison/internal/budget"
	"thinunison/internal/campaign"
	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/le"
	"thinunison/internal/mis"
	"thinunison/internal/randx"
	"thinunison/internal/restart"
	"thinunison/internal/sched"
	"thinunison/internal/sim"
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
	states, rounds, err := solve(g, opts, campaign.MISTask, "MIS")
	if err != nil {
		return MISResult{}, err
	}
	return MISResult{InSet: mis.InSet(states), Rounds: rounds}, nil
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
	states, rounds, err := solve(g, opts, campaign.LETask, "LE")
	if err != nil {
		return LEResult{}, err
	}
	return LEResult{Leader: le.Leaders(states)[0], Rounds: rounds}, nil
}

// solve runs the task newTask builds for the diameter bound on g until its
// output is stable: synchronously, or through the synchronizer when a
// scheduler option is given. The initial states come from
// randx.NewSource(seed), and the engine is seeded with the seed itself.
func solve[S comparable](g *Graph, opts []Option, newTask func(d int) (campaign.Task[S], error), name string) ([]restart.State[S], int, error) {
	o, err := buildOptions(g, opts)
	if err != nil {
		return nil, 0, err
	}
	t, err := newTask(o.d)
	if err != nil {
		return nil, 0, err
	}
	rng := rand.New(randx.NewSource(o.seed))
	seed := func() int64 { return o.seed }
	var run *campaign.TaskRun[S]
	if o.sched == nil {
		run, err = t.Sync(g, rng, seed, 0)
	} else {
		name = "asynchronous " + name
		run, err = t.Synchronized(g, o.sched, rng, seed)
	}
	if err != nil {
		return nil, 0, err
	}
	rounds, ok := run.RunUntilStable()
	if !ok {
		return nil, 0, fmt.Errorf("thinunison: %s did not stabilize within %d rounds", name, run.Budget())
	}
	return run.States(), rounds, nil
}
